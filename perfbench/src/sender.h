// The benchmark-owned load generator: one thread, one connected UDP
// socket, sendmmsg batches of pre-rendered datagrams.
//
// Closed loop (window > 0): at most `window` datagrams beyond the credit
// the serve thread grants through Credit() (the wire front's received +
// dropped count, read in Serve's on_tick hook), so the kernel receive
// buffer never overflows and throughput is the engine's capacity.
// Open loop (rate > 0): datagram i is due at start + i / rate, sent in
// batches of kOpenLoopBatch whatever the receiver does; lateness is recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "bench.h"

namespace perfbench {

class Sender {
 public:
  static constexpr std::size_t kOpenLoopBatch = 8;

  Sender(const Inputs& in, std::size_t count, std::uint16_t port,
         std::size_t window, double rate);
  ~Sender();
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  // Releases the thread; the first send follows immediately.
  void Start();
  // Cumulative datagrams the receiver has taken (closed loop).
  void Credit(std::uint64_t acked);
  // Stops sending (if still running) and joins the thread.
  void Stop();

  // Valid after Stop().
  const SenderStats& stats() const { return stats_; }
  std::uint64_t first_send_ns() const { return first_send_ns_; }

 private:
  void Run();

  const Inputs& in_;
  const std::size_t count_;
  const std::size_t window_;
  const double rate_;
  int fd_ = -1;
  std::atomic<int> go_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> acked_{0};
  SenderStats stats_;
  std::uint64_t first_send_ns_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace perfbench
