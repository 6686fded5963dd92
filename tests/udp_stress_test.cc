// Concurrency stress over the real UDP transport: several client threads
// hammer one server simultaneously, in both server execution modes. With
// workers = 0 one server thread receives and executes every request
// (serialized, the paper's single-threaded architecture); with a worker
// pool, requests from different clients execute concurrently and the
// server's internal locking carries the consistency guarantees. Running the
// same storm in both modes pins the claim that they are observably
// equivalent (and TSAN turns the worker-mode run into a data-race check).
// The duplicate tests pin at-most-once execution when any of the pool's
// receiving threads may take a retransmit.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;

void run_mixed_op_storm(unsigned workers) {
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;  // 8 MB per replica
  options.inode_slots = 2048;
  BulletHarness h(options);
  rpc::UdpServerOptions server_options;
  server_options.workers = workers;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));
  h.server().attach_io_counters(&udp.value()->io_counters());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> creates_confirmed{0};

  auto worker = [&](int thread_id) {
    rpc::UdpClientOptions client_options;
    client_options.server_udp_port = udp.value()->port();
    client_options.timeout_ms = 1000;
    auto transport = rpc::UdpTransport::connect(client_options);
    if (!transport.ok()) {
      ++failures;
      return;
    }
    BulletClient client(transport.value().get(),
                        h.server().super_capability());
    Rng rng(static_cast<std::uint64_t>(thread_id) * 1000 + 7);
    std::vector<std::pair<Capability, std::uint32_t>> mine;  // cap, crc
    for (int op = 0; op < kOpsPerThread; ++op) {
      const std::uint64_t dice = rng.next_below(100);
      if (mine.empty() || dice < 45) {
        Bytes data(rng.next_range(1, 8000));
        rng.fill(data);
        auto cap = client.create(data, 1);
        if (!cap.ok()) {
          ++failures;
          continue;
        }
        mine.emplace_back(cap.value(), crc32c(data));
        ++creates_confirmed;
      } else if (dice < 85) {
        const auto& [cap, crc] = mine[rng.next_below(mine.size())];
        auto data = client.read(cap);
        if (!data.ok() || crc32c(data.value()) != crc) ++failures;
      } else {
        const auto pick = rng.next_below(mine.size());
        if (!client.erase(mine[pick].first).ok()) ++failures;
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    // Final verification of everything this thread still owns.
    for (const auto& [cap, crc] : mine) {
      auto data = client.read(cap);
      if (!data.ok() || crc32c(data.value()) != crc) ++failures;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(creates_confirmed.load(), h.server().stats().creates);
  EXPECT_EQ(0u, h.server().check_consistency().repairs());
  if (workers > 0) {
    EXPECT_GT(h.server().stats().worker_wakeups, 0u);
  }
  udp.value()->stop();

  // Disk state is sound after the storm.
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

TEST(UdpStressTest, ParallelClientsKeepTheServerConsistent) {
  run_mixed_op_storm(/*workers=*/0);
}

TEST(UdpStressTest, ParallelClientsKeepTheServerConsistentWorkerPool) {
  run_mixed_op_storm(/*workers=*/4);
}

void run_large_transfer_storm(unsigned workers) {
  // Threads moving multi-fragment messages concurrently: fragment
  // reassembly keyed by (peer, message id) must never mix streams.
  BulletHarness h;
  rpc::UdpServerOptions server_options;
  server_options.workers = workers;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));

  std::atomic<int> failures{0};
  auto worker = [&](std::uint64_t seed) {
    rpc::UdpClientOptions client_options;
    client_options.server_udp_port = udp.value()->port();
    client_options.timeout_ms = 2000;
    auto transport = rpc::UdpTransport::connect(client_options);
    if (!transport.ok()) {
      ++failures;
      return;
    }
    BulletClient client(transport.value().get(),
                        h.server().super_capability());
    Rng rng(seed);
    for (int i = 0; i < 8; ++i) {
      Bytes data(100 * 1024);  // ~7 fragments each way
      rng.fill(data);
      auto cap = client.create(data, 1);
      if (!cap.ok()) {
        ++failures;
        continue;
      }
      auto back = client.read(cap.value());
      if (!back.ok() || !equal(data, back.value())) ++failures;
      if (!client.erase(cap.value()).ok()) ++failures;
    }
  };
  std::thread a(worker, 1), b(worker, 2);
  a.join();
  b.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0u, h.server().live_files());
  udp.value()->stop();
}

TEST(UdpStressTest, InterleavedLargeTransfers) {
  run_large_transfer_storm(/*workers=*/0);
}

TEST(UdpStressTest, InterleavedLargeTransfersWorkerPool) {
  run_large_transfer_storm(/*workers=*/2);
}

// --- at-most-once with several receiving threads -----------------------

TEST(UdpStressTest, DuplicateRequestsExecuteOnceWorkerPool) {
  // The pool-mode twin of UdpTest.DuplicateRequestsExecuteOnce: lost
  // replies make clients retransmit requests that already executed, and
  // any of the pool's receiving threads may take the retransmit while the
  // first copy is still finishing. Every create must still run once.
  BulletHarness h;
  rpc::UdpServerOptions server_options;
  server_options.workers = 4;
  server_options.drop_one_in = 3;
  server_options.loss_seed = 7;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));

  constexpr int kClients = 4;
  constexpr int kCreatesEach = 10;
  std::atomic<int> failures{0};
  auto worker = [&](int id) {
    rpc::UdpClientOptions client_options;
    client_options.server_udp_port = udp.value()->port();
    client_options.timeout_ms = 60;
    client_options.max_timeout_ms = 240;
    client_options.max_attempts = 20;
    client_options.backoff_seed = static_cast<std::uint64_t>(id) + 1;
    auto transport = rpc::UdpTransport::connect(client_options);
    if (!transport.ok()) {
      ++failures;
      return;
    }
    BulletClient client(transport.value().get(),
                        h.server().super_capability());
    for (int i = 0; i < kCreatesEach; ++i) {
      if (!client.create(testing::payload(1000, id * 100 + i), 1).ok()) {
        ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();
  udp.value()->stop();

  EXPECT_EQ(0, failures.load());
  EXPECT_GT(udp.value()->dropped(), 0u);
  constexpr std::uint64_t kCreates = kClients * kCreatesEach;
  EXPECT_EQ(kCreates, h.server().live_files());
  EXPECT_EQ(kCreates, h.server().stats().creates);
}

// Counts executions per request tag (the u64 body); answers at once, so a
// first copy finishes while its duplicates are still being received.
class CountingService final : public rpc::Service {
 public:
  Port public_port() const noexcept override { return Port(0xC0DE); }

  rpc::Reply handle(const rpc::Request& request) override {
    Reader r(request.body);
    const std::uint64_t tag = r.u64().value_or(0);
    std::lock_guard<std::mutex> lock(mu_);
    ++executions_[tag];
    return rpc::Reply::success(request.body);
  }

  std::map<std::uint64_t, int> executions() {
    std::lock_guard<std::mutex> lock(mu_);
    return executions_;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, int> executions_;
};

TEST(UdpStressTest, DuplicateDatagramStormExecutesOnce) {
  // A raw socket fires each request datagram many times back to back, so
  // copies of one message id land on different receiving threads at every
  // point of the first copy's lifetime: before it is queued, while it
  // executes, and after its reply is cached and its id retired. Waiting
  // for one reply before the next message keeps the copies of one message
  // together, racing only each other.
  CountingService service;
  rpc::UdpServerOptions server_options;
  server_options.workers = 4;
  server_options.reply_cache_entries = 1024;  // no reply is evicted
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&service));

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const timeval reply_timeout{1, 0};
  ASSERT_EQ(0, ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &reply_timeout,
                            sizeof reply_timeout));
  sockaddr_in server{};
  server.sin_family = AF_INET;
  server.sin_port = htons(udp.value()->port());
  server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  constexpr std::uint64_t kMessages = 500;
  constexpr int kCopies = 16;
  for (std::uint64_t id = 1; id <= kMessages; ++id) {
    rpc::Request request;
    request.target.port = Port(0xC0DE);
    Writer body(8);
    body.u64(id);
    request.body = std::move(body).take();
    const Bytes message = request.encode();
    // One fragment: magic, message id, index, count, length, payload.
    Writer w;
    w.u32(0x424C4652);
    w.u64(id);
    w.u16(0);
    w.u16(1);
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.bytes(message);
    const Bytes datagram = std::move(w).take();
    for (int copy = 0; copy < kCopies; ++copy) {
      ASSERT_EQ(static_cast<ssize_t>(datagram.size()),
                ::sendto(fd, datagram.data(), datagram.size(), 0,
                         reinterpret_cast<const sockaddr*>(&server),
                         sizeof server));
    }
    std::uint8_t reply[256];
    (void)::recv(fd, reply, sizeof reply, 0);
  }
  // Every copy is either executed or suppressed; wait until all are
  // accounted for (or ~5 s, in case the kernel dropped some).
  constexpr std::uint64_t kSent = kMessages * kCopies;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t executed = 0;
    for (const auto& [tag, count] : service.executions()) executed += count;
    if (executed + udp.value()->duplicates_suppressed() >= kSent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  udp.value()->stop();
  ::close(fd);

  const auto executions = service.executions();
  EXPECT_EQ(kMessages, executions.size());
  for (const auto& [tag, count] : executions) {
    EXPECT_EQ(1, count) << "message " << tag;
  }
  EXPECT_GT(udp.value()->duplicates_suppressed(), 0u);
}

}  // namespace
}  // namespace bullet
