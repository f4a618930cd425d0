// Phase-race detector for the two-phase channel semantics.
//
// The kernel's tick-order independence — and with it fast-forward
// bit-identity — rests on one honor-system contract: channel state moves
// strictly in two phases. tick() stages pushes and consumes
// previously-committed elements; the kernel's commit phase alone makes
// staged data visible. A violation silently makes results depend on
// component registration order with no diagnostic. This checker turns the
// contract into a machine-checked one.
//
// Instrumentation is compiled in only with the AXIHC_PHASE_CHECK CMake
// option (the default build carries zero per-access overhead; see
// docs/STATIC_ANALYSIS.md). When compiled in, it checks every channel
// access of every simulation: the Simulator stamps the kernel phase and the
// currently-ticking component, and a TimingChannel access that breaks the
// discipline throws ModelError at the access, naming the channel, the
// component and the rule. The rules: no mid-compute commit() (staged data
// made visible in the same cycle), no same-cycle read of freshly-committed
// state, and no push or read during the commit phase. Only
// ChannelBase::commit() runs in the commit phase, so channel accesses are
// the only writes it can race.
//
// Threading: both stamps are thread-local, so simulations running as
// parallel jobs (one simulation per thread at a time) each see only their
// own phase.
#pragma once

#include <cstdint>

namespace axihc {

class Component;

/// True when the build carries the channel instrumentation
/// (-DAXIHC_PHASE_CHECK=ON).
#ifdef AXIHC_PHASE_CHECK
inline constexpr bool kPhaseCheckAvailable = true;
#else
inline constexpr bool kPhaseCheckAvailable = false;
#endif

/// Where the engine currently is within a cycle. kOutside covers setup,
/// reset and inter-cycle code, where channel manipulation is unrestricted.
enum class EnginePhase : std::uint8_t { kOutside, kCompute, kCommit };

/// The calling thread's kernel stamps. All members are static: the
/// Simulator and the channels reach them without plumbing a context
/// through every access site.
class PhaseCheck {
 public:
  /// Kernel phase stamp (Simulator only; thread-local).
  static void set_phase(EnginePhase phase);

  /// Currently-ticking component (Simulator only; thread-local).
  static void set_current(const Component* component);
};

}  // namespace axihc
