// Building blocks of the end-to-end loopback benchmark (e2e_main.cc):
//
//  * the statistics the report uses (nearest-rank percentiles, timing
//    summaries, the per-layer ledger arithmetic);
//  * seeded input generation (zipf ranks, per-file content with a
//    byte-exact checker, an order-sensitive op hash);
//  * pass-through timing decorators at the public layer boundaries
//    (rpc::Transport under BulletClient, rpc::Service around BulletServer,
//    BlockDevice around each FileDisk replica) that the traced run inserts;
//  * Rig, which boots a Bullet server exactly as tools/bullet_server does
//    (two FileDisk images under MirroredDisk, BulletServer::start, UdpServer
//    with the worker pool), and Connection, one UdpTransport + BulletClient.
//
// Everything here is deterministic given its seed except the timings.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/rng.h"
#include "disk/file_disk.h"
#include "disk/mirrored_disk.h"
#include "rpc/udp_transport.h"

namespace bullet::perfbench {

std::uint64_t now_ns() noexcept;

// --- statistics --------------------------------------------------------

// Nearest-rank percentile of an ascending sample: the smallest value with
// at least p% of the sample at or below it. `p` in (0, 100]; 0 if empty.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, double p);

// A latency sample reduced to what the report prints. p99 is reported even
// when fewer than 1000 samples exist; `count` says how far to trust it.
struct Timing {
  std::uint64_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};
Timing summarize(std::vector<std::uint64_t> ns);

// The value a quarter of the slices match or beat: the ceil(n/4)-th best,
// where best is the smallest value unless `higher_is_better`. 0 if empty.
double quarter_best(std::vector<double> values, bool higher_is_better);

// Per-layer mean self times for one class of operations. Each boundary
// contributes the summed duration of the calls that crossed it; a layer's
// self time is its own boundary's total minus the total of the boundary
// nested inside it. Means add up, so the four self means sum to the
// client-observed mean by construction; what can go wrong is nesting (a
// negative self time) or a count mismatch between boundaries, which
// `consistent()` reports.
struct LedgerSums {
  std::uint64_t ops = 0;           // client operations (BulletClient calls)
  std::uint64_t op_ns = 0;         // client call start -> return
  std::uint64_t rpc_calls = 0;     // rpc::Transport::call crossings
  std::uint64_t rpc_ns = 0;
  std::uint64_t service_calls = 0; // rpc::Service::handle_async -> respond
  std::uint64_t service_ns = 0;
  std::uint64_t disk_ns = 0;       // FileDisk time attributed to the class
};
struct Ledger {
  std::uint64_t ops = 0;
  double op_us_mean = 0;
  double client_self_us = 0;
  double rpc_self_us = 0;
  double bullet_self_us = 0;
  double disk_self_us = 0;

  double sum_us() const noexcept {
    return client_self_us + rpc_self_us + bullet_self_us + disk_self_us;
  }
  bool consistent() const noexcept {
    return client_self_us >= 0 && rpc_self_us >= 0 && bullet_self_us >= 0 &&
           disk_self_us >= 0;
  }
};
Ledger make_ledger(const LedgerSums& s);

// --- inputs --------------------------------------------------------------

// Zipf(s) ranks over [0, n): rank r drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Seeded file contents. File `id` of `size` bytes starts with the id's
// little-endian bytes (so distinct files differ) followed by a window of a
// seeded random pool at an id-derived offset. Checking a read is two
// memcmps, cheap enough to run on every reply.
class ContentModel {
 public:
  static constexpr std::size_t kMaxFile = 64 << 10;

  explicit ContentModel(std::uint64_t seed);
  Bytes make(std::uint64_t id, std::size_t size) const;
  bool matches(std::uint64_t id, std::size_t size, ByteSpan got) const;

 private:
  static constexpr std::size_t kPool = 64 << 10;
  std::size_t offset_of(std::uint64_t id) const noexcept;

  std::uint64_t seed_;
  Bytes pool_;  // kPool + kMaxFile bytes, so every window is contiguous
};

// Order-sensitive FNV-1a hash of generated operations.
class OpHash {
 public:
  void add(std::uint64_t v) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- tracing decorators ----------------------------------------------------

enum class OpClass : std::uint8_t { kRead = 0, kCreate = 1, kDelete = 2, kOther = 3 };
inline constexpr int kOpClasses = 4;
OpClass classify(std::uint16_t opcode) noexcept;

// The traced run turns this on only while every client is idle, so each
// operation is timed at all boundaries or at none.
std::atomic<bool>& tracing_on() noexcept;

enum class IoKind : std::uint8_t { kRead = 0, kWrite = 1, kFlush = 2 };
// No default member initializers: SpanLog allocates its buffer without
// touching it, so untouched capacity costs no memory.
struct Span {
  std::uint64_t dur_ns;
  std::uint32_t bytes;
  OpClass cls;
  IoKind kind;
};

// Preallocated span buffer shared by the threads of one layer. record() is
// wait-free; spans past the capacity are counted and dropped. take() must
// run while no thread records (between traced windows).
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity)
      : buf_(std::make_unique_for_overwrite<Span[]>(capacity)),
        capacity_(capacity) {}
  void record(const Span& span) noexcept;
  std::vector<Span> take();
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<Span[]> buf_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> published_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// rpc boundary, client side: times each call of the wrapped transport. One
// per connection, used by that connection's thread only.
class TimedTransport final : public rpc::Transport {
 public:
  explicit TimedTransport(rpc::Transport* inner) : inner_(inner) {}
  Result<rpc::Reply> call(const rpc::Request& request) override;
  // Duration of the most recent traced call (0 when tracing was off).
  std::uint64_t last_call_ns() const noexcept { return last_ns_; }

 private:
  rpc::Transport* inner_;
  std::uint64_t last_ns_ = 0;
};

// bullet boundary, server side: from handle_async() entry until the
// service invokes the responder, which for a cache miss or a create happens
// later on a disk-completion thread. While the synchronous part runs, the
// request's class is published to this thread so TimedDisk can attribute
// device calls made inline (a DELETE's inode write).
class TimedService final : public rpc::Service {
 public:
  TimedService(rpc::Service* inner, SpanLog* log) : inner_(inner), log_(log) {}
  Port public_port() const noexcept override { return inner_->public_port(); }
  rpc::Reply handle(const rpc::Request& request) override;
  void handle_async(const rpc::Request& request,
                    rpc::Responder respond) override;

 private:
  rpc::Service* inner_;
  SpanLog* log_;
};

// disk boundary: one per FileDisk replica, beneath MirroredDisk. Device
// calls made on a service thread belong to that request's class; calls on
// a disk-queue thread are read fills (reads) or create write-through
// (writes) — the only queued device work in steady state.
class TimedDisk final : public BlockDevice {
 public:
  TimedDisk(BlockDevice* inner, SpanLog* log) : inner_(inner), log_(log) {}
  std::uint64_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }
  Status read(std::uint64_t first_block, MutableByteSpan out) override;
  Status write(std::uint64_t first_block, ByteSpan data) override;
  Status flush() override;

  // Wall time with at least one call of this device in flight, and the
  // number of failed calls. Shared by all replicas (static): busy_share is
  // "any replica busy".
  static std::uint64_t busy_ns() noexcept;
  static std::uint64_t errors() noexcept;

 private:
  // Bracket one device call: mark the device busy, then record the span.
  static std::uint64_t enter() noexcept;
  void leave(IoKind kind, std::size_t bytes, std::uint64_t start_ns,
             const Status& st) noexcept;

  BlockDevice* inner_;
  SpanLog* log_;
};

// --- the server under test ---------------------------------------------------

// tools/bullet_server's flag defaults, which every workload keeps; only
// the cache size (--cache-mb) is chosen per workload. Trace sampling stays
// at the obs default.
struct DaemonFlags {
  static constexpr unsigned kWorkers = 4;
  static constexpr unsigned kIoThreads = 2;
  static constexpr std::size_t kMaxQueue = 1024;
  static constexpr std::size_t kMaxClientQueue = 0;
  static constexpr std::size_t kMaxInflight = 256;
  static constexpr std::uint32_t kShedRetryMs = 50;
};

struct RigConfig {
  std::string dir;  // where the two image files live (created if missing)
  std::uint64_t image_mb = 64;
  std::uint32_t inode_slots = 4096;
  std::uint64_t cache_mb = 64;
  bool traced = false;  // insert the timing decorators
};

class Rig {
 public:
  static constexpr std::uint64_t kBlockSize = 512;  // bullet_tool format's
  static constexpr int kReplicas = 2;

  // Format both images, boot the server on them, open the UDP front door.
  static Result<std::unique_ptr<Rig>> boot(const RigConfig& config);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::uint16_t port() const noexcept { return udp_->port(); }
  BulletServer& server() noexcept { return *server_; }
  const RigConfig& config() const noexcept { return config_; }
  // Null unless traced.
  SpanLog* service_log() noexcept { return service_log_.get(); }
  SpanLog* disk_log() noexcept { return disk_log_.get(); }

 private:
  explicit Rig(RigConfig config) : config_(std::move(config)) {}

  RigConfig config_;
  std::vector<std::string> paths_;
  std::unique_ptr<SpanLog> service_log_;
  std::unique_ptr<SpanLog> disk_log_;
  std::vector<std::unique_ptr<FileDisk>> files_;
  std::vector<std::unique_ptr<TimedDisk>> timed_disks_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
  std::unique_ptr<TimedService> timed_service_;
  std::unique_ptr<rpc::UdpServer> udp_;
};

// One client connection: its own UDP socket and BulletClient, optionally
// with a TimedTransport between them.
struct Connection {
  std::unique_ptr<rpc::UdpTransport> udp;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<BulletClient> client;

  static Result<Connection> open(Rig& rig, std::uint64_t backoff_seed);
  std::uint64_t last_rpc_ns() const noexcept {
    return timed != nullptr ? timed->last_call_ns() : 0;
  }
};

}  // namespace bullet::perfbench
