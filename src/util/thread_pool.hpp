#pragma once
// Minimal work-stealing-free thread pool: a fixed set of workers pulling
// indexed tasks from an atomic counter. This matches the decoders' needs
// exactly (N independent splits / partitions / segments) and keeps the
// parallel paths free of per-task allocation.

#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/ints.hpp"
#include "util/named_threads.hpp"
#include "util/thread_annotations.hpp"

namespace recoil {

class ThreadPool {
public:
    explicit ThreadPool(unsigned threads = std::thread::hardware_concurrency()) {
        if (threads == 0) threads = 1;
        workers_.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            workers_.emplace_back([this, t] {
                util::name_current_thread("recoil-pool", t);
                worker_loop();
            });
        }
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool() RECOIL_EXCLUDES(mu_) {
        {
            util::MutexLock lk(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

    /// Run body(i) for i in [0, count) across the pool; blocks until done.
    /// The calling thread participates, so a pool of size T uses T+1 lanes.
    void parallel_for(u64 count, const std::function<void(u64)>& body)
        RECOIL_EXCLUDES(mu_) {
        if (count == 0) return;
        if (count == 1 || workers_.empty()) {
            for (u64 i = 0; i < count; ++i) body(i);
            return;
        }
        // Each job is its own shared object: a straggler worker that is
        // still inside drain() when the job completes touches only its
        // snapshot, never the fields of the NEXT job (with inline job state
        // that straggler raced parallel_for's rewrite — caught by TSan).
        auto job = std::make_shared<Job>(&body, count);
        {
            util::MutexLock lk(mu_);
            job_ = job;
            ++generation_;
        }
        cv_.notify_all();
        drain(*job);  // caller helps
        {
            util::MutexLock lk(mu_);
            // Job::pending is atomic; the mutex only frames the sleep so a
            // worker's done_cv_ notify (taken under mu_) cannot slip between
            // the check and the wait.
            while (job->pending.load(std::memory_order_acquire) != 0) {
                done_cv_.wait(mu_);
            }
            job_ = nullptr;
        }
        // `body` may now be destroyed: no thread will claim another index
        // (next >= count), and stragglers keep the Job itself alive.
    }

private:
    struct Job {
        Job(const std::function<void(u64)>* b, u64 n)
            : body(b), count(n), pending(n) {}
        const std::function<void(u64)>* body;
        u64 count;
        std::atomic<u64> next{0};
        std::atomic<u64> pending;
    };

    void drain(Job& job) RECOIL_EXCLUDES(mu_) {
        for (;;) {
            const u64 i = job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.count) return;
            (*job.body)(i);
            if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                util::MutexLock lk(mu_);
                done_cv_.notify_all();
            }
        }
    }

    void worker_loop() RECOIL_EXCLUDES(mu_) {
        u64 seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                util::MutexLock lk(mu_);
                while (!stopping_ && generation_ == seen) cv_.wait(mu_);
                if (stopping_) return;
                seen = generation_;
                job = job_;
            }
            if (job != nullptr) drain(*job);
        }
    }

    std::vector<std::thread> workers_;
    util::Mutex mu_;
    util::CondVar cv_;
    util::CondVar done_cv_;
    std::shared_ptr<Job> job_ RECOIL_GUARDED_BY(mu_);
    u64 generation_ RECOIL_GUARDED_BY(mu_) = 0;
    bool stopping_ RECOIL_GUARDED_BY(mu_) = false;
};

/// Process-wide pool used by decode paths when the caller does not supply one.
ThreadPool& global_pool();

/// Run body(i) for i in [0, count): inline when `pool` is null or the count
/// is 1, otherwise across the pool with the first worker exception rethrown
/// in the caller. The shared loop of every parallel decode path.
inline void for_each_index(ThreadPool* pool, u64 count,
                           const std::function<void(u64)>& body) {
    if (pool == nullptr || count <= 1) {
        for (u64 i = 0; i < count; ++i) body(i);
        return;
    }
    std::exception_ptr first_error;
    util::Mutex err_mu;
    pool->parallel_for(count, [&](u64 i) {
        try {
            body(i);
        } catch (...) {
            util::MutexLock lk(err_mu);
            if (!first_error) first_error = std::current_exception();
        }
    });
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace recoil
