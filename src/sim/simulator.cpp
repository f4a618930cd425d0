#include "sim/simulator.hpp"

#include "sim/phase_check.hpp"

// Phase-race detector stamps (sim/phase_check.hpp): the kernel marks which
// phase of the cycle it is in and which component is ticking, so channel
// accesses can be checked against the two-phase discipline. Compiled away
// entirely in builds without AXIHC_PHASE_CHECK.
#ifdef AXIHC_PHASE_CHECK
#define AXIHC_STAMP_PHASE(p) ::axihc::PhaseCheck::set_phase(::axihc::EnginePhase::p)
#define AXIHC_STAMP_CURRENT(c) ::axihc::PhaseCheck::set_current(c)
#else
#define AXIHC_STAMP_PHASE(p) ((void)0)
#define AXIHC_STAMP_CURRENT(c) ((void)0)
#endif

namespace axihc {

void commit_lanes_dense(ChannelHot* hot, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ChannelHot& h = hot[i];
    h.committed += h.staged;
    h.staged = 0;
    h.snapshot = h.committed;
  }
}

void commit_lanes_sparse(ChannelHot* hot, const std::uint32_t* lanes,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ChannelHot& h = hot[lanes[i]];
    h.committed += h.staged;
    h.staged = 0;
    h.snapshot = h.committed;
  }
}

void Simulator::add(Component& component) {
  components_.push_back(&component);
  pool_stale_ = true;
}

void Simulator::add(ChannelBase& channel) {
  channels_.push_back(&channel);
  // finalize_pool() adopts the channel's hot words before the next cycle.
  channel.dirty_list_ = &dirty_;
  channel.lane_list_ = &dirty_lanes_;
  channel.epoch_ = &epoch_;
  channel.enqueue_epoch_ = 0;
  pool_stale_ = true;
  // A channel touched before registration (pushes staged during setup) must
  // still be committed at the end of the first cycle. It has no lane yet,
  // so it goes on the pointer list (the virtual-commit path).
  if (channel.dirty_) {
    channel.enqueue_epoch_ = epoch_;
    dirty_.push_back(&channel);
  }
}

void Simulator::reset() {
  for (auto* c : components_) c->reset();
  for (auto* ch : channels_) ch->reset();
  // Commit once so occupancy snapshots start from the empty state.
  for (auto* ch : channels_) ch->commit();
  dirty_.clear();
  dirty_lanes_.clear();
  // Invalidate stale enqueue stamps: the lists were cleared wholesale, so a
  // stamp equal to the old epoch must not suppress the next enqueue.
  ++epoch_;
  last_step_quiet_ = true;
  now_ = 0;
}

void Simulator::finalize_pool() {
  pool_.resize_channels(channels_.size());
  // Growth may have moved the lane array: (re-)install every handle. Lane
  // index == registration index, so handles already installed just repoint.
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    const auto lane = static_cast<std::uint32_t>(ci);
    const bool pooled = channels_[ci]->adopt_hot_lane(&pool_.hot(lane), lane);
    pool_.set_lane_channel(lane, pooled ? channels_[ci] : nullptr);
  }
  for (std::size_t i = adopted_components_; i < components_.size(); ++i) {
    components_[i]->adopt_hot_state(pool_);
  }
  adopted_components_ = components_.size();
  pool_stale_ = false;
}

void Simulator::commit_pooled() {
  if (dirty_lanes_.empty()) return;
#ifdef AXIHC_PHASE_CHECK
  // The lane sweeps bypass virtual commit(): stamp each dirty lane's ledger
  // the way TimingChannel::commit would have.
  for (std::uint32_t lane : dirty_lanes_) {
    if (ChannelBase* ch = pool_.lane_channel(lane)) ch->ledger_on_commit();
  }
#endif
  const std::size_t n = pool_.channel_lanes();
  // Dense sweeps are unconditional over every lane — clean lanes are no-ops
  // (staged == 0, snapshot == committed) — so the branch-free linear pass
  // wins as soon as a modest fraction of the pool is dirty.
  if (dirty_lanes_.size() * 4 >= n) {
    commit_lanes_dense(pool_.hot_data(), n);
  } else {
    commit_lanes_sparse(pool_.hot_data(), dirty_lanes_.data(),
                        dirty_lanes_.size());
  }
  dirty_lanes_.clear();
}

void Simulator::step() {
  if (pool_stale_) finalize_pool();
  tick_and_commit();
}

void Simulator::tick_and_commit() {
  AXIHC_STAMP_PHASE(kCompute);
  for (auto* c : components_) {
    AXIHC_STAMP_CURRENT(c);
    c->tick(now_);
  }
  AXIHC_STAMP_CURRENT(nullptr);
  // Quiet cycles (no push/pop/flush anywhere) are the precondition for even
  // attempting a fast-forward next cycle: busy fabrics touch channels nearly
  // every cycle, so this keeps the next_activity scan off the hot path.
  last_step_quiet_ = no_pending_commits();
  AXIHC_STAMP_PHASE(kCommit);
  commit_pooled();
  for (auto* ch : dirty_) ch->commit();
  dirty_.clear();
  AXIHC_STAMP_PHASE(kOutside);
  ++now_;
  ++epoch_;
}

void Simulator::advance(Cycle deadline) {
  if (pool_stale_) finalize_pool();
  // Jump only from a provably frozen state: the last cycle moved no data
  // (so no commit is pending a snapshot change) and nothing was staged
  // outside a tick since then.
  if (fast_forward_ && last_step_quiet_ && no_pending_commits()) {
    // Earliest next_activity over all components, clipped to the deadline;
    // the walk stops at the first active component (na <= now_), in which
    // case there is nothing to skip.
    Cycle target = deadline;
    for (const auto* c : components_) {
      const Cycle na = c->next_activity(now_);
      if (na <= now_) {
        target = now_;
        break;
      }
      if (na < target) target = na;
    }
    // Every skipped cycle [now_, target) would have been a full-system
    // no-op: no ticks run, so the certificates stay valid by induction.
    now_ = target;
    if (now_ >= deadline) return;
  }
  tick_and_commit();
}

void Simulator::run(Cycle cycles) {
  const Cycle deadline = now_ + cycles;
  while (now_ < deadline) advance(deadline);
}

std::uint64_t Simulator::state_digest() const {
  StateDigest d;
  d.mix(static_cast<std::uint64_t>(now_));
  d.mix(static_cast<std::uint64_t>(channels_.size()));
  for (const auto* ch : channels_) ch->append_digest(d);
  d.mix(static_cast<std::uint64_t>(components_.size()));
  for (const auto* c : components_) {
    d.mix(c->name());
    c->append_digest(d);
  }
  return d.value();
}

}  // namespace axihc
