#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace wire::util {

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t thread_count = std::min(threads, count);
  std::vector<std::thread> helpers;
  helpers.reserve(thread_count);
  for (std::size_t t = 1; t < thread_count; ++t) {
    // The caller drains too, so a helper that cannot be spawned only costs
    // parallelism, never progress.
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace wire::util
