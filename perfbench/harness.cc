#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>

#include "bullet/wire.h"

namespace bullet::perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- statistics --------------------------------------------------------

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Timing summarize(std::vector<std::uint64_t> ns) {
  Timing t;
  t.count = ns.size();
  if (ns.empty()) return t;
  std::sort(ns.begin(), ns.end());
  long double total = 0;
  for (const std::uint64_t v : ns) total += static_cast<long double>(v);
  t.mean_us = static_cast<double>(total / static_cast<long double>(ns.size())) / 1e3;
  t.p50_us = static_cast<double>(nearest_rank(ns, 50)) / 1e3;
  t.p99_us = static_cast<double>(nearest_rank(ns, 99)) / 1e3;
  return t;
}

double quarter_best(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0;
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  return values[(values.size() + 3) / 4 - 1];
}

Ledger make_ledger(const LedgerSums& s) {
  Ledger l;
  l.ops = s.ops;
  if (s.ops == 0) return l;
  const double n = static_cast<double>(s.ops);
  const auto us = [n](double ns) { return ns / n / 1e3; };
  const auto op = static_cast<double>(s.op_ns);
  const auto rpc = static_cast<double>(s.rpc_ns);
  const auto svc = static_cast<double>(s.service_ns);
  const auto disk = static_cast<double>(s.disk_ns);
  l.op_us_mean = us(op);
  l.client_self_us = us(op - rpc);
  l.rpc_self_us = us(rpc - svc);
  l.bullet_self_us = us(svc - disk);
  l.disk_self_us = us(disk);
  return l;
}

// --- inputs --------------------------------------------------------------

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

namespace {
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
constexpr std::size_t kIdBytes = 8;
}  // namespace

ContentModel::ContentModel(std::uint64_t seed) : seed_(seed), pool_(kPool + kMaxFile) {
  Rng rng(splitmix64(seed));
  rng.fill(pool_);
}

std::size_t ContentModel::offset_of(std::uint64_t id) const noexcept {
  return static_cast<std::size_t>(splitmix64(id ^ seed_) % kPool);
}

Bytes ContentModel::make(std::uint64_t id, std::size_t size) const {
  Bytes out(size);
  const std::size_t head = std::min(size, kIdBytes);
  for (std::size_t i = 0; i < head; ++i) {
    out[i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
  if (size > head) {
    std::memcpy(out.data() + head, pool_.data() + offset_of(id) + head,
                size - head);
  }
  return out;
}

bool ContentModel::matches(std::uint64_t id, std::size_t size,
                           ByteSpan got) const {
  if (got.size() != size || size > kMaxFile) return false;
  const std::size_t head = std::min(size, kIdBytes);
  for (std::size_t i = 0; i < head; ++i) {
    if (got[i] != static_cast<std::uint8_t>(id >> (8 * i))) return false;
  }
  return size == head || std::memcmp(got.data() + head,
                                     pool_.data() + offset_of(id) + head,
                                     size - head) == 0;
}

void OpHash::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

// --- tracing decorators ----------------------------------------------------

OpClass classify(std::uint16_t opcode) noexcept {
  switch (opcode) {
    case wire::kRead:
      return OpClass::kRead;
    case wire::kCreate:
      return OpClass::kCreate;
    case wire::kDelete:
      return OpClass::kDelete;
    default:
      return OpClass::kOther;
  }
}

std::atomic<bool>& tracing_on() noexcept {
  static std::atomic<bool> on{false};
  return on;
}

namespace {
// Class of the request whose synchronous service part runs on this thread.
thread_local int tl_service_class = -1;

struct BusyClock {
  std::mutex mu;
  int inflight = 0;             // guarded by mu
  std::uint64_t since_ns = 0;   // guarded by mu
  std::uint64_t busy_ns = 0;    // guarded by mu
};
BusyClock& busy_clock() {
  static BusyClock clock;
  return clock;
}
std::atomic<std::uint64_t> g_disk_errors{0};
}  // namespace

void SpanLog::record(const Span& span) noexcept {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf_[i] = span;
  published_.fetch_add(1, std::memory_order_release);
}

std::vector<Span> SpanLog::take() {
  const std::size_t n = std::min(next_.load(std::memory_order_relaxed), capacity_);
  // Every claimed slot is written before its publish; wait out a recorder
  // that claimed a slot but has not published yet.
  while (published_.load(std::memory_order_acquire) < n) {
  }
  std::vector<Span> out(buf_.get(), buf_.get() + n);
  next_.store(0, std::memory_order_relaxed);
  published_.store(0, std::memory_order_relaxed);
  return out;
}

Result<rpc::Reply> TimedTransport::call(const rpc::Request& request) {
  if (!tracing_on().load(std::memory_order_relaxed)) {
    last_ns_ = 0;
    return inner_->call(request);
  }
  const std::uint64_t start = now_ns();
  Result<rpc::Reply> reply = inner_->call(request);
  last_ns_ = now_ns() - start;
  return reply;
}

rpc::Reply TimedService::handle(const rpc::Request& request) {
  return inner_->handle(request);
}

void TimedService::handle_async(const rpc::Request& request,
                                rpc::Responder respond) {
  if (!tracing_on().load(std::memory_order_relaxed)) {
    inner_->handle_async(request, std::move(respond));
    return;
  }
  const OpClass cls = classify(request.opcode);
  const std::uint64_t start = now_ns();
  tl_service_class = static_cast<int>(cls);
  // The span closes before the reply is handed back for encoding and
  // sending, so it is recorded before the client can see the reply.
  inner_->handle_async(
      request, [log = log_, cls, start,
                respond = std::move(respond)](rpc::Reply&& reply) mutable {
        log->record(Span{now_ns() - start, 0, cls, IoKind::kRead});
        respond(std::move(reply));
      });
  tl_service_class = -1;
}

std::uint64_t TimedDisk::enter() noexcept {
  BusyClock& c = busy_clock();
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.inflight++ == 0) c.since_ns = start;
  return start;
}

void TimedDisk::leave(IoKind kind, std::size_t bytes, std::uint64_t start_ns,
                      const Status& st) noexcept {
  const std::uint64_t end = now_ns();
  {
    BusyClock& c = busy_clock();
    std::lock_guard<std::mutex> lock(c.mu);
    if (--c.inflight == 0) c.busy_ns += end - c.since_ns;
  }
  if (!st.ok()) g_disk_errors.fetch_add(1, std::memory_order_relaxed);
  if (!tracing_on().load(std::memory_order_relaxed)) return;
  OpClass cls;
  if (tl_service_class >= 0) {
    cls = static_cast<OpClass>(tl_service_class);
  } else {
    cls = kind == IoKind::kRead ? OpClass::kRead : OpClass::kCreate;
  }
  log_->record(Span{end - start_ns, static_cast<std::uint32_t>(bytes), cls, kind});
}

Status TimedDisk::read(std::uint64_t first_block, MutableByteSpan out) {
  const std::uint64_t start = enter();
  const Status st = inner_->read(first_block, out);
  leave(IoKind::kRead, out.size(), start, st);
  return st;
}

Status TimedDisk::write(std::uint64_t first_block, ByteSpan data) {
  const std::uint64_t start = enter();
  const Status st = inner_->write(first_block, data);
  leave(IoKind::kWrite, data.size(), start, st);
  return st;
}

Status TimedDisk::flush() {
  const std::uint64_t start = enter();
  const Status st = inner_->flush();
  leave(IoKind::kFlush, 0, start, st);
  return st;
}

std::uint64_t TimedDisk::busy_ns() noexcept {
  BusyClock& c = busy_clock();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.busy_ns;
}

std::uint64_t TimedDisk::errors() noexcept {
  return g_disk_errors.load(std::memory_order_relaxed);
}

// --- the server under test ---------------------------------------------------

namespace {
// Enough for every span of a 60-second run's traced half at loopback rates.
constexpr std::size_t kSpanCapacity = 4u << 20;
}  // namespace

Result<std::unique_ptr<Rig>> Rig::boot(const RigConfig& config) {
  std::unique_ptr<Rig> rig(new Rig(config));
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) return Error(ErrorCode::io_error, "mkdir " + config.dir);

  const std::uint64_t blocks = (config.image_mb << 20) / kBlockSize;
  std::vector<BlockDevice*> replicas;
  if (config.traced) {
    rig->service_log_ = std::make_unique<SpanLog>(kSpanCapacity);
    rig->disk_log_ = std::make_unique<SpanLog>(kSpanCapacity);
  }
  for (int i = 0; i < kReplicas; ++i) {
    const std::string path = config.dir + "/replica" + std::to_string(i) + ".img";
    std::filesystem::remove(path, ec);
    rig->paths_.push_back(path);
    // As `bullet_tool format <image> <mb> <slots>` does, once per image.
    BULLET_ASSIGN_OR_RETURN(FileDisk disk, FileDisk::open(path, kBlockSize, blocks));
    BULLET_RETURN_IF_ERROR(BulletServer::format(disk, config.inode_slots));
    rig->files_.push_back(std::make_unique<FileDisk>(std::move(disk)));
    BlockDevice* device = rig->files_.back().get();
    if (config.traced) {
      rig->timed_disks_.push_back(
          std::make_unique<TimedDisk>(device, rig->disk_log_.get()));
      device = rig->timed_disks_.back().get();
    }
    replicas.push_back(device);
  }
  BULLET_ASSIGN_OR_RETURN(MirroredDisk mirror, MirroredDisk::create(replicas));
  rig->mirror_ = std::make_unique<MirroredDisk>(std::move(mirror));

  BulletConfig server_config;
  server_config.cache_bytes = config.cache_mb << 20;
  server_config.io_threads = DaemonFlags::kIoThreads;
  server_config.max_inflight_fills = DaemonFlags::kMaxInflight;
  BULLET_ASSIGN_OR_RETURN(rig->server_,
                          BulletServer::start(rig->mirror_.get(), server_config));

  rpc::UdpServerOptions udp_options;
  udp_options.udp_port = 0;  // kernel-chosen, so concurrent runs never clash
  udp_options.workers = DaemonFlags::kWorkers;
  udp_options.max_queue = DaemonFlags::kMaxQueue;
  udp_options.max_client_queue = DaemonFlags::kMaxClientQueue;
  udp_options.shed_retry_ms = DaemonFlags::kShedRetryMs;
  BULLET_ASSIGN_OR_RETURN(rig->udp_, rpc::UdpServer::start(udp_options));
  rig->server_->attach_io_counters(&rig->udp_->io_counters());
  rpc::Service* service = rig->server_.get();
  if (config.traced) {
    rig->timed_service_ =
        std::make_unique<TimedService>(service, rig->service_log_.get());
    service = rig->timed_service_.get();
  }
  BULLET_RETURN_IF_ERROR(rig->udp_->register_service(service));
  return rig;
}

Rig::~Rig() {
  if (udp_ != nullptr) udp_->stop();
  if (server_ != nullptr) server_->attach_io_counters(nullptr);
  udp_.reset();
  server_.reset();  // drains the disk queue
  timed_service_.reset();
  mirror_.reset();
  timed_disks_.clear();
  files_.clear();
  std::error_code ec;
  for (const std::string& path : paths_) std::filesystem::remove(path, ec);
}

Result<Connection> Connection::open(Rig& rig, std::uint64_t backoff_seed) {
  Connection c;
  rpc::UdpClientOptions options;  // bullet_client's defaults
  options.server_udp_port = rig.port();
  options.backoff_seed = backoff_seed;
  BULLET_ASSIGN_OR_RETURN(c.udp, rpc::UdpTransport::connect(options));
  rpc::Transport* transport = c.udp.get();
  if (rig.config().traced) {
    c.timed = std::make_unique<TimedTransport>(transport);
    transport = c.timed.get();
  }
  c.client = std::make_unique<BulletClient>(transport,
                                            rig.server().super_capability());
  return c;
}

}  // namespace bullet::perfbench
