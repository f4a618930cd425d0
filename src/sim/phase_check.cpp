#include "sim/phase_check.hpp"

#include <string>

#include "common/check.hpp"
#include "sim/channel.hpp"
#include "sim/component.hpp"

namespace axihc {

namespace {

thread_local EnginePhase t_phase = EnginePhase::kOutside;
thread_local const Component* t_current = nullptr;

}  // namespace

void PhaseCheck::set_phase(EnginePhase phase) { t_phase = phase; }

void PhaseCheck::set_current(const Component* component) {
  t_current = component;
}

#ifdef AXIHC_PHASE_CHECK

// --- ChannelBase instrumentation (declared in sim/channel.hpp) ----------
//
// The phase rules live here, out of the header, so the hot channel methods
// only pay an outlined call (and only in instrumented builds; the default
// build compiles the hooks away entirely).

namespace {

[[noreturn]] void race(const std::string& channel, const char* rule) {
  throw ModelError("phase race on channel '" + channel + "' in " +
                   (t_current != nullptr ? "component '" + t_current->name() +
                                               "'"
                                         : std::string("<outside tick>")) +
                   ": " + rule);
}

}  // namespace

void ChannelBase::ledger_on_read() const {
  if (t_phase == EnginePhase::kCommit) {
    race(name(), "committed-state read during the engine commit phase");
  }
  if (t_phase == EnginePhase::kCompute && epoch_ != nullptr &&
      ledger_commit_epoch_ == *epoch_) {
    race(name(),
         "same-cycle read-after-commit: observes data staged this cycle");
  }
}

void ChannelBase::ledger_on_write() const {
  if (t_phase == EnginePhase::kCommit) {
    race(name(), "push during the engine commit phase");
  }
}

void ChannelBase::ledger_on_commit() const {
  ledger_commit_epoch_ = epoch_ != nullptr ? *epoch_ : 0;
  if (t_phase == EnginePhase::kCompute) {
    race(name(),
         "mid-compute commit: staged data made visible in the same cycle");
  }
}

#endif  // AXIHC_PHASE_CHECK

}  // namespace axihc
