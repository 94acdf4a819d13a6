#include "mcam/mca.hpp"

namespace mcam::core {

using estelle::Interaction;
using estelle::kAnyState;
using osi::kPConConf;
using osi::kPConInd;
using osi::kPConRefuse;
using osi::kPConReq;
using osi::kPConResp;
using osi::kPDatInd;
using osi::kPDatReq;
using osi::kPAbortInd;
using osi::kPAbortReq;
using osi::kPRelConf;
using osi::kPRelInd;
using osi::kPRelReq;
using osi::kPRelResp;

namespace {
const common::SimTime kMcaCost = common::SimTime::from_us(80);

/// Deliver a PDU on an application channel (kind = operation tag).
void deliver(estelle::InteractionPoint& ip, const Pdu& pdu) {
  ip.output(Interaction(static_cast<int>(op_of(pdu)), encode(pdu)));
}
}  // namespace

// ---------------------------------------------------------------------------
// McaClientModule

McaClientModule::McaClientModule(std::string name)
    : Module(std::move(name), estelle::Attribute::Process),
      app_(ip("A")),
      service_(ip("D")) {
  define_transitions();
}

void McaClientModule::define_transitions() {
  auto& a = app();
  auto& d = service();

  // Association: AssociateReq rides the P-CONNECT user data.
  trans("m-associate")
      .from(kClosed)
      .when(a, static_cast<int>(Op::AssociateReq))
      .to(kConnecting)
      .cost(kMcaCost)
      .action([this](Module&, Interaction* msg) {
        service().output(Interaction(kPConReq, std::move(msg->payload)));
      });
  trans("m-assoc-conf")
      .from(kConnecting)
      .when(d, kPConConf)
      .to(kOpen)
      .cost(kMcaCost)
      .action([this](Module&, Interaction* msg) {
        app().output(Interaction(static_cast<int>(Op::AssociateResp),
                                 std::move(msg->payload)));
      });
  trans("m-assoc-refused")
      .from(kConnecting)
      .when(d, kPConRefuse)
      .to(kClosed)
      .cost(kMcaCost)
      .action([this](Module&, Interaction* msg) {
        // The refusal user data carries an AssociateResp explaining why.
        app().output(Interaction(static_cast<int>(Op::AssociateResp),
                                 std::move(msg->payload)));
      });

  // Release: ReleaseReq rides P-RELEASE.
  trans("m-release")
      .from(kOpen)
      .when(a, static_cast<int>(Op::ReleaseReq))
      .to(kReleasing)
      .priority(1)
      .cost(kMcaCost)
      .action([this](Module&, Interaction* msg) {
        service().output(Interaction(kPRelReq, std::move(msg->payload)));
      });
  trans("m-release-conf")
      .from(kReleasing)
      .when(d, kPRelConf)
      .to(kClosed)
      .cost(kMcaCost)
      .action([this](Module&, const Interaction*) {
        deliver(app(), Pdu{ReleaseResp{}});
      });

  // Requests: any other application PDU is forwarded over P-DATA.
  trans("m-request")
      .from(kOpen)
      .when(a)
      .priority(5)
      .cost(kMcaCost)
      .action([this](Module&, Interaction* msg) {
        service().output(Interaction(kPDatReq, std::move(msg->payload)));
      });

  // Responses / indications from the server.
  trans("m-response")
      .from(kOpen)
      .when(d, kPDatInd)
      .cost(kMcaCost)
      .action([this](Module&, Interaction* msg) {
        auto op = peek_op(msg->payload);
        app().output(Interaction(
            op.ok() ? static_cast<int>(op.value())
                    : static_cast<int>(Op::ErrorResp),
            std::move(msg->payload)));
      });

  // User abort: tear the association down immediately (A-ABORT downwards).
  trans("m-user-abort")
      .from(kAnyState)
      .when(a, kAppAbort)
      .to(kClosed)
      .priority(1)
      .cost(kMcaCost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kClosed)
          service().output(Interaction(kPAbortReq));
      });

  // Provider abort: surface as an ErrorResp and fall back to kClosed.
  trans("m-abort")
      .from(kAnyState)
      .when(d, kPAbortInd)
      .to(kClosed)
      .priority(1)
      .cost(kMcaCost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kClosed)
          deliver(app(), Pdu{ErrorResp{ResultCode::InternalError,
                                       "provider abort"}});
      });

  // Catch-alls keep the head-of-queue discipline live. App requests are only
  // discarded while kClosed (no association); in kConnecting they simply wait
  // at the head of the queue and flow once the association opens.
  trans("m-discard-app")
      .from(kClosed)
      .when(a)
      .priority(1000)
      .cost(kMcaCost)
      .action([](Module&, const Interaction*) {});
  trans("m-discard-service")
      .when(d)
      .priority(1000)
      .cost(kMcaCost)
      .action([](Module&, const Interaction*) {});
}

// ---------------------------------------------------------------------------
// McaServerModule

McaServerModule::McaServerModule(std::string name, McamServerCore& core)
    : Module(std::move(name), estelle::Attribute::Process),
      service_(ip("D")),
      core_(core) {
  define_transitions();
}

void McaServerModule::define_transitions() {
  auto& d = service();

  trans("m-assoc-ind")
      .from(kIdle)
      .when(d, kPConInd)
      .cost(kMcaCost)
      .action([this](Module& m, const Interaction* msg) {
        auto request = decode(msg->payload);
        AssociateResp resp;
        bool accept = false;
        if (request.ok() &&
            std::holds_alternative<AssociateReq>(request.value())) {
          auto session =
              core_.associate(std::get<AssociateReq>(request.value()));
          if (session.ok()) {
            session_ = session.value();
            accept = true;
            resp = AssociateResp{ResultCode::Success, "welcome"};
          } else {
            resp = AssociateResp{
                static_cast<ResultCode>(session.error().code),
                session.error().message};
          }
        } else {
          resp = AssociateResp{ResultCode::ProtocolError,
                               "malformed AssociateReq"};
        }
        service().output(Interaction(kPConResp, accept ? 1 : 0,
                                     encode(Pdu{std::move(resp)})));
        m.set_state(accept ? kOpen : kIdle);
      });

  trans("m-request")
      .from(kOpen)
      .when(d, kPDatInd)
      .cost(kMcaCost)
      .action([this](Module&, const Interaction* msg) {
        auto request = decode(msg->payload);
        Pdu response =
            request.ok()
                ? core_.handle(session_, request.value())
                : Pdu{ErrorResp{ResultCode::ProtocolError,
                                request.error().message}};
        service().output(Interaction(kPDatReq, encode(response)));
      });

  // §2's movie control includes position feedback during playback: when a
  // stream has advanced enough since its last report, push PositionInd PDUs
  // to the client (unsolicited, over P-DATA). The guard reads this
  // association's streams in the core. Only this module's own requests
  // open, stop, pause or resume them, and Testbed::advance_streams, the one
  // place their positions advance, marks every server MCA ready.
  trans("m-position")
      .from(kOpen)
      .priority(20)
      .cost(kMcaCost)
      .provided(
          [this](Module&, const Interaction*) {
            return core_.has_position_updates(session_);
          },
          estelle::GuardReads::Hooked)
      .action([this](Module&, const Interaction*) {
        for (const PositionInd& ind :
             core_.drain_position_updates(session_))
          service().output(Interaction(kPDatReq, encode(Pdu{ind})));
      });

  trans("m-release-ind")
      .from(kOpen)
      .when(d, kPRelInd)
      .to(kIdle)
      .cost(kMcaCost)
      .action([this](Module&, const Interaction*) {
        core_.release(session_);
        session_ = 0;
        service().output(Interaction(kPRelResp));
      });

  trans("m-abort")
      .from(kAnyState)
      .when(d, kPAbortInd)
      .to(kIdle)
      .priority(1)
      .cost(kMcaCost)
      .action([this](Module&, const Interaction*) {
        if (session_ != 0) core_.release(session_);
        session_ = 0;
      });

  trans("m-discard")
      .when(d)
      .priority(1000)
      .cost(kMcaCost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::core
