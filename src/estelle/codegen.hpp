// Estelle-subset front end ("the code generator").
//
// The paper derives its implementation from Estelle text via a modified
// Pet/Dingo generator (§4.2). Shipping a full ISO 9074 compiler is out of
// scope (DESIGN.md §2); instead this module demonstrates the pipeline's
// essential step — specification text in, executable transition table out —
// for a declarative subset:
//
//   module <Name> <attribute>;
//   ip <name>;                      -- interaction points
//   state <S1>, <S2>, ...;          -- first state is initial
//   kind <K1>, <K2>, ...;           -- interaction kinds on the channels
//   trans <name> from <S> [when <ip>.<kind>] [delay <n>us]
//         [priority <p>] [cost <n>us] [to <S>];
//
// parse() yields a MachineSpec; instantiate() materializes it onto a live
// Module, binding actions by transition name. Unbound transitions get a
// no-op action, so a parsed machine is immediately runnable for validation —
// exactly the rapid-prototyping use the paper describes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle::codegen {

struct TransitionSpec {
  std::string name;
  std::string from_state;
  std::string to_state;   // empty = no change
  std::string ip;         // empty = spontaneous
  std::string kind;       // empty with ip set = any kind
  int priority = 0;
  std::int64_t delay_us = 0;
  std::int64_t cost_us = 10;
};

struct MachineSpec {
  std::string module_name;
  Attribute attribute = Attribute::Process;
  std::vector<std::string> ips;
  std::vector<std::string> states;  // states[0] is initial
  std::vector<std::string> kinds;
  std::vector<TransitionSpec> transitions;

  [[nodiscard]] int state_id(const std::string& name) const;
  [[nodiscard]] int kind_id(const std::string& name) const;
};

enum CodegenError : int {
  kSyntax = 2001,
  kUnknownSymbol = 2002,
};

/// Parse one module specification.
common::Result<MachineSpec> parse(std::string_view text);

/// Action bindings by transition name (the "hand-coded parts" of §4.3).
using ActionMap =
    std::map<std::string, std::function<void(Module&, Interaction*)>>;

/// Materialize the machine onto `target`: declares IPs, sets the initial
/// state, and registers every transition (table-driven dispatch). Actions
/// not present in `actions` become no-ops. Returns names of the IPs created
/// so the caller can connect channels.
common::Status instantiate(const MachineSpec& spec, Module& target,
                           const ActionMap& actions = {});

/// Emit a C++-like source rendering of the transition table (what the real
/// generator would write to disk) — used for documentation and golden tests.
std::string render_cpp(const MachineSpec& spec);

}  // namespace mcam::estelle::codegen
