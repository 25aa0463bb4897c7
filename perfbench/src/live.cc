// The live path: serve set-up, the benchmark-owned sender, one
// closed-loop pass through EngineHost::Serve, and the in-process
// reference it must agree with.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>

#include "bench.h"
#include "net/config_parser.h"
#include "sender.h"

namespace perfbench {

namespace core = sld::core;
namespace engine = sld::engine;

engine::EngineOptions ServeEngineOptions() {
  engine::EngineOptions opts;  // shards 1, hold 5 s, dedup off
  opts.idle_close_ms = 1800 * sld::kMsPerSecond;
  return opts;
}

core::LocationDict BuildDict(const std::vector<std::string>& configs) {
  std::vector<sld::net::ParsedConfig> parsed;
  parsed.reserve(configs.size());
  for (const std::string& cfg : configs) {
    parsed.push_back(sld::net::ParseConfig(cfg));
  }
  return core::LocationDict::Build(parsed);
}

std::unique_ptr<Served> SetUp(const std::vector<std::string>& configs,
                              const std::string& kb_text,
                              std::string* error) {
  auto s = std::make_unique<Served>();
  const std::uint64_t t0 = NowNs();
  try {
    s->dict = std::make_unique<core::LocationDict>(BuildDict(configs));
  } catch (const std::exception& e) {
    *error = std::string("config parse failed: ") + e.what();
    return nullptr;
  }
  const std::uint64_t t1 = NowNs();
  s->kb = std::make_unique<core::KnowledgeBase>(
      core::KnowledgeBase::Deserialize(kb_text));
  const std::uint64_t t2 = NowNs();
  engine::HostOptions host_opts;
  host_opts.pool_threads = 1;  // one tenant: pumps run on the serve thread
  s->host = std::make_unique<engine::EngineHost>(host_opts);
  s->host->AddEngine(std::make_unique<engine::Engine>(
      s->kb.get(), s->dict.get(), ServeEngineOptions()));
  sld::wirefront::WireOptions wire;
  wire.backend = sld::wirefront::Backend::kPoll;
  wire.listeners = 1;
  if (!s->host->BindAll(wire, error)) return nullptr;
  const std::uint64_t t3 = NowNs();
  s->dict_s = NsToS(t1 - t0);
  s->kb_s = NsToS(t2 - t1);
  s->bind_s = NsToS(t3 - t2);
  s->total_s = NsToS(t3 - t0);
  return s;
}

int GrantedRcvbuf() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return 0;
  const int want = sld::wirefront::WireOptions{}.rcvbuf_bytes;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &want, sizeof want);
  int granted = 0;
  socklen_t len = sizeof granted;
  if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &granted, &len) != 0) {
    granted = 0;
  }
  ::close(fd);
  return granted;
}

std::size_t CreditWindow(int rcvbuf_bytes) {
  // A queued loopback datagram is charged its skb truesize (about 1 KiB
  // for these payloads); 4 KiB each leaves a wide margin.
  const std::size_t w = static_cast<std::size_t>(std::max(rcvbuf_bytes, 0)) /
                        4096;
  return std::clamp<std::size_t>(w, 16, 1024);
}

// ---- Sender ----------------------------------------------------------------

Sender::Sender(const Inputs& in, std::size_t count, std::uint16_t port,
               std::size_t window, double rate)
    : in_(in), count_(count), window_(window), rate_(rate) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ >= 0) {
    const int sndbuf = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  thread_ = std::thread([this] { Run(); });
}

Sender::~Sender() { Stop(); }

void Sender::Start() {
  go_.store(1, std::memory_order_release);
  go_.notify_one();
}

void Sender::Credit(std::uint64_t acked) {
  acked_.store(acked, std::memory_order_release);
  acked_.notify_one();
}

void Sender::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  go_.store(1, std::memory_order_release);
  go_.notify_one();
  acked_.fetch_add(1, std::memory_order_acq_rel);
  acked_.notify_one();
  thread_.join();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Sender::Run() {
  go_.wait(0, std::memory_order_acquire);
  if (stop_.load(std::memory_order_acquire) || fd_ < 0) return;
  constexpr std::size_t kBatch = 64;
  mmsghdr hdrs[kBatch];
  iovec iov[kBatch];
  std::size_t i = 0;
  const std::uint64_t start = NowNs();
  first_send_ns_ = start;
  std::uint64_t busy = 0, wait = 0;
  while (i < count_ && !stop_.load(std::memory_order_relaxed)) {
    std::size_t room = kBatch;
    if (rate_ > 0) {
      // Open loop: send the next small batch when it falls due.
      room = kOpenLoopBatch;
      const auto due = start + static_cast<std::uint64_t>(
                                   static_cast<double>(i) * 1e9 / rate_);
      std::uint64_t now = NowNs();
      if (now < due) {
        if (due - now > 200000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 100000));
        }
        while ((now = NowNs()) < due) {
        }
      }
      stats_.late_s.push_back(NsToS(now - due));
    } else {
      // Closed loop: at most window_ datagrams beyond what the wire front
      // has taken off the socket.
      std::uint64_t acked = acked_.load(std::memory_order_acquire);
      if (i >= acked + window_) {
        const std::uint64_t w0 = NowNs();
        while (i >= acked + window_ && !stop_.load(std::memory_order_relaxed)) {
          acked_.wait(acked, std::memory_order_acquire);
          acked = acked_.load(std::memory_order_acquire);
        }
        wait += NowNs() - w0;
        if (stop_.load(std::memory_order_relaxed)) break;
      }
      room = std::min<std::size_t>(kBatch, acked + window_ - i);
    }
    const std::size_t k = std::min(room, count_ - i);
    for (std::size_t j = 0; j < k; ++j) {
      const std::string_view d = in_.datagram(i + j);
      iov[j].iov_base = const_cast<char*>(d.data());
      iov[j].iov_len = d.size();
      hdrs[j] = mmsghdr{};
      hdrs[j].msg_hdr.msg_iov = &iov[j];
      hdrs[j].msg_hdr.msg_iovlen = 1;
    }
    std::size_t done = 0;
    const std::uint64_t s0 = NowNs();
    while (done < k) {
      const int r = ::sendmmsg(fd_, hdrs + done, static_cast<unsigned>(k - done), 0);
      if (r < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == ENOBUFS) continue;
        stop_.store(true, std::memory_order_relaxed);
        break;
      }
      done += static_cast<std::size_t>(r);
    }
    busy += NowNs() - s0;
    i += done;
  }
  stats_.sent = i;
  stats_.busy_s = NsToS(busy);
  stats_.credit_wait_s = NsToS(wait);
}

// ---- one closed-loop pass --------------------------------------------------

PassResult ServePass(Served* served, const Inputs& in, std::size_t window,
                     std::size_t count) {
  PassResult r;
  const std::size_t n =
      count == 0 ? in.datagram_count() : std::min(count, in.datagram_count());
  engine::Engine* eng = served->engine();
  eng->SetEventSink([&r](const core::DigestEvent& ev) { r.events.Add(ev); });
  sld::wirefront::WireFront* front = served->host->front();
  Sender sender(in, n, served->host->port_of(0), window, 0.0);
  engine::EngineHost::ServeOptions opts;
  opts.max_datagrams = static_cast<long>(n);
  // A closed loop never goes quiet unless datagrams were lost.
  opts.idle_exit_s = 2;
  opts.on_tick = [&] {
    sender.Credit(front->datagrams() + front->kernel_drops());
  };
  sender.Start();
  served->host->Serve(opts);
  const std::uint64_t end = NowNs();
  sender.Stop();
  r.sender = sender.stats();
  r.seconds = NsToS(end - sender.first_send_ns());
  r.sent = r.sender.sent;
  r.kernel_drops = front->kernel_drops();
  const auto& c = eng->collector();
  r.accepted = c.accepted_count();
  r.malformed = c.malformed_count();
  r.late = c.late_count();
  r.duplicates = c.duplicate_count();
  r.ledger_ok = r.sent == n &&
                r.sent == r.accepted + r.kernel_drops + r.malformed + r.late +
                              r.duplicates;
  return r;
}

EventHash ReferenceEvents(const Inputs& in, const std::string& kb_text,
                          const core::LocationDict& dict) {
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(kb_text);
  engine::Engine eng(&kb, &dict, ServeEngineOptions());
  EventHash events;
  eng.SetEventSink([&events](const core::DigestEvent& ev) { events.Add(ev); });
  const std::size_t n = in.datagram_count();
  for (std::size_t i = 0; i < n; ++i) {
    eng.IngestDatagram(in.datagram(i));
    if (i % 256 == 255) eng.Pump();
  }
  eng.Pump();
  eng.Finish();
  return events;
}

}  // namespace perfbench
