// The transition tables of the three commit roles. The 2PC Agent (one state
// per subtransaction), the Coordinator (one state per global transaction)
// and Paxos Commit's leader and resolver (one state per transaction a site
// leads, resolves or has learned) each list every transition they make as
// a constexpr array of edges; debug builds assert each input they apply
// against their table.

#ifndef HERMES_CORE_TRANSITIONS_H_
#define HERMES_CORE_TRANSITIONS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>

namespace hermes::core {

// One edge of a state diagram: each of `inputs` (a bit per Input) takes a
// transaction from `from` to `to`.
template <typename State, typename Input>
struct Transition {
  State from;
  uint32_t inputs;
  State to;
};

// The bit set of `inputs`.
template <typename... In>
constexpr uint32_t Inputs(In... inputs) {
  return ((uint32_t{1} << static_cast<int>(inputs)) | ...);
}

// True when an edge of `table` takes `input` from `from` to `to`, or with
// no `to` anywhere.
template <typename State, typename Input, size_t N>
constexpr bool TransitionAllowed(
    const std::array<Transition<State, Input>, N>& table, State from,
    Input input, std::type_identity_t<std::optional<State>> to = {}) {
  for (const Transition<State, Input>& t : table) {
    if (t.from == from && (t.inputs & Inputs(input)) != 0 &&
        (!to || t.to == *to)) {
      return true;
    }
  }
  return false;
}

}  // namespace hermes::core

#endif  // HERMES_CORE_TRANSITIONS_H_
