// The shared session lifecycle plumbing the five legacy runners used to
// re-implement by hand: acquire a scheduler (fresh, or leased from a
// per-driver Workspace so fleet sessions reuse one event slab), bind it
// to the session timeline (a runtime::Context clock or a private one),
// run, release.
//
//   session::ScopedScheduler lease(session::bind_session_clock(ctx));
//   event::Scheduler& sched = lease.get();
//
// replaces the optional<Scheduler> / make_unique<Scheduler> boilerplate
// at every runner entry point, and transparently upgrades every runner
// to slab reuse whenever a Workspace is bound on the current thread
// (the fleet driver binds one per chunk).  Without a workspace the
// behavior is exactly the pre-refactor one: a stack-owned scheduler per
// session — which is how the byte-identical oracles stay meaningful.
#pragma once

#include <cstdint>
#include <optional>

#include "event/scheduler.hpp"
#include "runtime/context.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::session {

/// Reusable per-driver session state: one scheduler whose event slab
/// (and container capacities) survive across sessions.  Bind it to the
/// current thread with WorkspaceScope; every ScopedScheduler constructed
/// while the scope is active leases the workspace scheduler instead of
/// building its own.  Not thread-safe — one workspace per driver chunk.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Sessions that leased this workspace so far.
  std::uint64_t leases() const noexcept { return leases_; }
  /// The reused scheduler (tests pin pool_slots() stability across
  /// sessions through this).
  const event::Scheduler& scheduler() const noexcept { return sched_; }

 private:
  friend class ScopedScheduler;
  friend class WorkspaceScope;

  event::Scheduler sched_;
  std::uint64_t leases_ = 0;
  bool leased_ = false;  ///< A ScopedScheduler currently holds sched_.
};

/// Thread-local workspace binding (RAII, nestable: the previous binding
/// restores on destruction).
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& workspace) noexcept;
  ~WorkspaceScope();
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace* prev_;
};

/// The workspace bound to the current thread, or nullptr.
Workspace* current_workspace() noexcept;

/// Context-to-timeline step of the lifecycle: resets the session clock
/// (a context represents one session timeline; the session starts at
/// t=0) and hands it to ScopedScheduler.
inline util::SimClock* bind_session_clock(const runtime::Context& ctx) {
  ctx.clock().reset();
  return &ctx.clock();
}

/// Scheduler acquisition for one session.  With a clock: the scheduler
/// rides it (the caller decides whether/when it resets — see
/// bind_session_clock).  Without: a private clock starting at 0.  When a
/// Workspace is bound on this thread and not already leased (sessions
/// can nest — e.g. a runner that drives a StreamPipeline), the workspace
/// scheduler is reset and reused; otherwise a scheduler lives on this
/// object.  Either way get() is a just-constructed scheduler: no
/// processes, no hooks, zero counters.
class ScopedScheduler {
 public:
  explicit ScopedScheduler(util::SimClock* clock);
  ~ScopedScheduler();
  ScopedScheduler(const ScopedScheduler&) = delete;
  ScopedScheduler& operator=(const ScopedScheduler&) = delete;

  event::Scheduler& get() noexcept { return *sched_; }

 private:
  std::optional<event::Scheduler> owned_;
  event::Scheduler* sched_ = nullptr;
  Workspace* leased_from_ = nullptr;
};

}  // namespace cyclops::session
