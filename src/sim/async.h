#ifndef LAMBADA_SIM_ASYNC_H_
#define LAMBADA_SIM_ASYNC_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/simulator.h"

namespace lambada::sim {

/// Lazily-started coroutine returning T, awaitable exactly once.
///
/// `Async<T>` is the unit of simulated activity: a service call, a worker,
/// a download thread. Awaiting an Async starts it (symmetric transfer) and
/// suspends the awaiter until the child completes. Ownership of the
/// coroutine frame lies with the Async object; the frame is destroyed when
/// the Async is destroyed, which must happen only after completion (which
/// is guaranteed when the value was obtained by co_await).
template <typename T>
class [[nodiscard]] Async;

namespace internal {

template <typename Promise>
struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Resume whoever awaited us; if detached, just stop (frame freed by
    // the owning Async / Spawn wrapper).
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  void unhandled_exception() { LAMBADA_FATAL() << "exception in coroutine"; }
  std::suspend_always initial_suspend() noexcept { return {}; }
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Async {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;
    Async get_return_object() {
      return Async(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    internal::FinalAwaiter<promise_type> final_suspend() noexcept {
      return {};
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Async(Async&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Async& operator=(Async&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Async(const Async&) = delete;
  Async& operator=(const Async&) = delete;
  ~Async() { Destroy(); }

  // Awaiter interface: awaiting starts the child coroutine.
  bool await_ready() const noexcept { return handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  T await_resume() { return std::move(*handle_.promise().value); }

 private:
  explicit Async(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Async<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Async get_return_object() {
      return Async(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    internal::FinalAwaiter<promise_type> final_suspend() noexcept {
      return {};
    }
    void return_void() {}
  };

  Async(Async&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Async& operator=(Async&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Async(const Async&) = delete;
  Async& operator=(const Async&) = delete;
  ~Async() { Destroy(); }

  bool await_ready() const noexcept { return handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {}

 private:
  explicit Async(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

namespace internal {

/// Self-destroying detached coroutine used by Spawn/WhenAllVoid wrappers.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      LAMBADA_FATAL() << "exception in detached coroutine";
    }
  };
};

inline DetachedTask SpawnImpl(Async<void> a) { co_await std::move(a); }

}  // namespace internal

/// Runs `a` as a detached process. The coroutine starts immediately (it
/// runs until its first suspension point within the current event).
inline void Spawn(Async<void> a) { internal::SpawnImpl(std::move(a)); }

/// Awaitable that suspends for `dt` virtual seconds.
struct SleepAwaiter {
  Simulator* sim;
  Time dt;
  bool await_ready() const noexcept { return dt <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim->ScheduleAfter(dt, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline SleepAwaiter Sleep(Simulator* sim, Time dt) { return {sim, dt}; }

/// Manual-reset event: waiters suspend until Set() is called. Waking is
/// scheduled (not inline) to keep resume stacks shallow and ordering FIFO.
class Event {
 public:
  explicit Event(Simulator* sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void Set() {
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sim_->ScheduleAfter(0, [h] { h.resume(); });
    }
  }

  void Reset() { set_ = false; }
  bool is_set() const { return set_; }

  struct Awaiter {
    Event* event;
    bool await_ready() const noexcept { return event->set_; }
    void await_suspend(std::coroutine_handle<> h) const {
      event->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter Wait() { return Awaiter{this}; }

 private:
  Simulator* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

namespace internal {

struct WhenAllVoidState {
  explicit WhenAllVoidState(Simulator* sim, size_t n)
      : pending(n), done(sim) {}
  size_t pending;
  Event done;
};

inline DetachedTask WhenAllVoidRunner(Async<void> task,
                                      std::shared_ptr<WhenAllVoidState> st) {
  co_await std::move(task);
  if (--st->pending == 0) st->done.Set();
}

}  // namespace internal

/// Runs all tasks concurrently; completes when every task has completed.
inline Async<void> WhenAllVoid(Simulator* sim,
                               std::vector<Async<void>> tasks) {
  auto st =
      std::make_shared<internal::WhenAllVoidState>(sim, tasks.size());
  if (tasks.empty()) st->done.Set();
  for (auto& t : tasks) {
    internal::WhenAllVoidRunner(std::move(t), st);
  }
  co_await st->done.Wait();
}

/// Counting semaphore for bounding in-flight concurrency (e.g., the
/// driver's pool of invocation threads). FIFO grant order.
class Semaphore {
 public:
  Semaphore(Simulator* sim, int64_t count) : sim_(sim), count_(count) {}

  struct Awaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) const {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter Acquire() { return Awaiter{this}; }

  void Release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.erase(waiters_.begin());
      sim_->ScheduleAfter(0, [h] { h.resume(); });
    } else {
      ++count_;
    }
  }

  int64_t available() const { return count_; }

 private:
  Simulator* sim_;
  int64_t count_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace lambada::sim

#endif  // LAMBADA_SIM_ASYNC_H_
