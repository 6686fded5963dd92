// End-to-end loopback benchmark of the Bullet server.
//
//   e2e_bench --workload hot-read|cold-read|churn --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Boots a Bullet server the way tools/bullet_server does (two freshly
// formatted FileDisk images under MirroredDisk, BulletServer::start,
// UdpServer with its worker pool and the daemon's flag defaults) and drives
// it over real loopback UDP through BulletClient/UdpTransport from this one
// process: at most four client threads, one connection each. Every reply is
// checked against the seeded content it must hold.
//
// --trace 0 prints the end-to-end metrics; --trace 1 inserts the timing
// decorators of harness.h and prints the per-layer ledger instead. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it is the full report (provenance, config,
// sample counts, per-class ledger). README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "harness.h"

using namespace bullet;
using namespace bullet::perfbench;

namespace {

// --- workloads ---------------------------------------------------------------

// The paper's file-size rows up to 64 KB (1 MB replies would dominate a
// mixed loop); churn draws create sizes uniformly from these.
constexpr std::uint32_t kCreateSizes[] = {1, 16, 512, 4 << 10, 64 << 10};
constexpr int kPfactor = 2;             // both replicas before the ack
constexpr int kMaxConnections = 4;      // one per host CPU at most
constexpr std::size_t kRingOps = 1 << 16;  // closed-loop op stream per conn
constexpr int kSetupReps = 5;           // setup_s is the median of these
constexpr double kProbeShare = 0.2;     // share of --seconds for CREATE+DELETE
constexpr int kProbeConnections = 2;
constexpr int kProbeChunks = 4;
constexpr std::size_t kDeletesChecked = 4096;  // per connection, after the run
// End-to-end figures are reduced per slice, over this many equal slices of
// the measured windows, and reported as the value a quarter of the slices
// match or beat (quarter_best). Bursts of host steal that spoil up to three
// quarters of the slices then leave the figure alone, while a change in
// the server's own cost moves every slice. Pooled figures and each slice's
// value are in the report as well.
constexpr int kSlices = 16;

struct WorkloadSpec {
  std::string name;
  std::string why;
  std::uint64_t image_mb = 0;
  std::uint32_t inode_slots = 0;
  std::uint64_t cache_mb = 0;
  std::size_t files = 0;        // the read set
  std::uint32_t file_bytes = 0;
  int conns = 0;                // closed-loop connections
  // Churn only: its mix has writes, so it needs no CREATE+DELETE phase.
  bool writes = false;
  double read_share = 0;        // the rest alternates CREATE / DELETE
  double zipf_s = 0;
  std::size_t pool_per_conn = 0;  // live churn files per connection
  double warmup_s = 0;
};

WorkloadSpec spec_for(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "hot-read") {
    w.why = "4 KB reads of a cache-resident set: time goes to rpc and the "
            "bullet cache-hit path, none to disk";
    w.image_mb = 32;
    w.inode_slots = 2048;
    w.cache_mb = 64;  // bullet_server's --cache-mb default
    w.files = 1024;
    w.file_bytes = 4 << 10;
    w.conns = 4;
  } else if (name == "cold-read") {
    w.why = "64 KB reads uniform over 4x the cache: disk fills, the async "
            "disk queue and FileCache eviction";
    w.image_mb = 192;
    w.inode_slots = 4096;
    w.cache_mb = 32;
    w.files = 2048;
    w.file_bytes = 64 << 10;
    w.conns = 2;
  } else if (name == "churn") {
    w.why = "zipf reads beside CREATE P-FACTOR 2 and DELETE: writers "
            "through the exclusive lock, holes, both replicas";
    w.image_mb = 64;
    w.inode_slots = 4096;
    w.cache_mb = 64;
    w.files = 1024;
    w.file_bytes = 4 << 10;
    w.conns = 4;
    w.writes = true;
    w.read_share = 0.5;
    w.zipf_s = 0.99;
    w.pool_per_conn = 128;
    w.warmup_s = 0.5;
  } else {
    w.name.clear();
  }
  return w;
}

// --- generated operations --------------------------------------------------

struct Op {
  OpClass cls = OpClass::kRead;
  std::uint32_t key = 0;     // read: read-set index; delete: pool index
  std::uint32_t size = 0;    // create: payload size
};

struct FileRef {
  std::uint64_t id = 0;
  std::uint32_t size = 0;
  Capability cap;
};

// One connection's inputs: a ring of ops it cycles through, and the files
// it created.
struct Stream {
  std::vector<Op> ops;
  std::size_t cursor = 0;
  std::vector<FileRef> initial_pool;   // churn: created during set-up
  std::vector<FileRef> pool;           // live files this connection created
  std::vector<FileRef> deleted;        // acked deletes
  std::uint64_t next_id = 0;           // ids for files this stream creates
};

std::uint64_t id_base(int stream) {
  return (static_cast<std::uint64_t>(stream) + 1) << 40;
}

// Builds every stream from the seed alone and folds each op into `hash`.
std::vector<Stream> generate(const WorkloadSpec& w, std::uint64_t seed,
                             OpHash* hash) {
  std::vector<Stream> streams(static_cast<std::size_t>(w.conns));
  for (int c = 0; c < w.conns; ++c) {
    Stream& s = streams[static_cast<std::size_t>(c)];
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(c) * 7919 + 17);
    s.next_id = id_base(c);
    if (w.name == "hot-read") {
      // A disjoint slice of the read set per connection.
      const std::size_t per = w.files / static_cast<std::size_t>(w.conns);
      const std::size_t begin = per * static_cast<std::size_t>(c);
      for (std::size_t i = 0; i < kRingOps; ++i) {
        s.ops.push_back({OpClass::kRead,
                         static_cast<std::uint32_t>(begin + rng.next_below(per)),
                         0});
      }
    } else if (w.name == "cold-read") {
      for (std::size_t i = 0; i < kRingOps; ++i) {
        s.ops.push_back({OpClass::kRead,
                         static_cast<std::uint32_t>(rng.next_below(w.files)), 0});
      }
    } else {  // churn
      // Ranks map to files through a seeded permutation, so the hottest
      // file is not always the first one created.
      std::vector<std::uint32_t> perm(w.files);
      Rng perm_rng(seed ^ 0x5eed);
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::uint32_t>(i);
      for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[perm_rng.next_below(i)]);
      }
      const Zipf zipf(w.files, w.zipf_s);
      for (std::size_t i = 0; i < w.pool_per_conn; ++i) {
        FileRef f;
        f.id = s.next_id++;
        f.size = kCreateSizes[rng.next_below(std::size(kCreateSizes))];
        s.initial_pool.push_back(f);
      }
      // Creates and deletes alternate, so the live set stays level, and the
      // ring ends on a delete, so every pass starts from the same pool
      // size. Simulating that size lets every DELETE name a live entry.
      std::size_t pool = w.pool_per_conn;
      bool create_next = true;
      while (s.ops.size() < kRingOps || !create_next) {
        Op op;
        if (rng.next_double() < w.read_share) {
          op.cls = OpClass::kRead;
          op.key = perm[zipf.sample(rng)];
        } else if (create_next) {
          op.cls = OpClass::kCreate;
          op.size = kCreateSizes[rng.next_below(std::size(kCreateSizes))];
          ++pool;
          create_next = false;
        } else {
          op.cls = OpClass::kDelete;
          op.key = static_cast<std::uint32_t>(rng.next_below(pool));
          --pool;
          create_next = true;
        }
        s.ops.push_back(op);
      }
      for (const FileRef& f : s.initial_pool) {
        hash->add(f.id);
        hash->add(f.size);
      }
    }
    for (const Op& op : s.ops) {
      hash->add(static_cast<std::uint64_t>(op.cls));
      hash->add(op.key);
      hash->add(op.size);
    }
  }
  return streams;
}

// --- measurement -------------------------------------------------------------

struct Sample {
  std::uint64_t begin_ns = 0; // BulletClient call start, absolute
  std::uint64_t lat_ns = 0;   // call start -> return
  std::uint64_t rpc_ns = 0;   // traced: time inside rpc::Transport::call
  std::uint32_t bytes = 0;    // payload read or created
  OpClass cls = OpClass::kRead;
  bool ok = false;
};

struct Window {
  bool traced = false;
  std::vector<Sample> samples;
  std::uint64_t origin_ns = 0;  // nominal start and length, for slicing
  std::uint64_t span_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  wire::ServerStats before, after;
  std::uint64_t retransmits = 0;
  std::uint64_t pushbacks = 0;
  std::uint64_t disk_busy_ns = 0;
  std::uint64_t disk_errors = 0;
  std::vector<Span> service_spans;
  std::vector<Span> disk_spans;
};

std::uint64_t process_cpu_ns() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ull;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

class Bench {
 public:
  Bench(WorkloadSpec spec, std::uint64_t seed, bool traced, std::string workdir)
      : spec_(std::move(spec)),
        seed_(seed),
        traced_(traced),
        workdir_(std::move(workdir)),
        content_(seed) {
    streams_ = generate(spec_, seed, &hash_);
  }

  const WorkloadSpec& spec() const { return spec_; }
  std::uint64_t op_hash() const { return hash_.value(); }
  const std::string& wrong() const { return wrong_; }
  Rig& rig() { return *rig_; }

  // Format, boot, populate, warm up. Returns false with `error` set on a
  // failed step (wrong bytes are reported through wrong()).
  bool setup(std::string* error);
  void teardown() {
    conns_.clear();
    rig_.reset();
  }

  // One window of the workload's main mix, `seconds` long.
  Window run_main(double seconds, bool traced);
  // CREATE+DELETE pairs of the read set's file size, closed loop.
  Window run_probe(double seconds, bool traced);

  // Post-run output checks; appends one line per failure.
  void check_end_state(const std::vector<Window>& main_windows,
                       std::vector<std::string>* failures);

 private:
  Sample execute(int conn, Stream& s, const Op& op);
  bool check_read(const FileRef& f, const Result<Bytes>& got);
  void flag_wrong(const std::string& what);
  Window measure(bool traced, const std::function<void(int)>& body, int threads);
  bool populate(std::string* error);
  bool warm_up();

  WorkloadSpec spec_;
  std::uint64_t seed_;
  bool traced_;
  std::string workdir_;
  ContentModel content_;
  OpHash hash_;
  std::vector<Stream> streams_;
  std::unique_ptr<Rig> rig_;
  std::vector<Connection> conns_;
  std::vector<FileRef> files_;  // the read set
  std::atomic<bool> stop_{false};
  std::mutex wrong_mu_;
  std::string wrong_;  // guarded by wrong_mu_; first content mismatch
};

void Bench::flag_wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(wrong_mu_);
  if (wrong_.empty()) wrong_ = what;
  stop_.store(true);
}

bool Bench::check_read(const FileRef& f, const Result<Bytes>& got) {
  if (!got.ok()) return false;
  if (!content_.matches(f.id, f.size, got.value())) {
    flag_wrong("read of file id " + std::to_string(f.id) + " (" +
               std::to_string(f.size) + " B) returned wrong bytes");
    return false;
  }
  return true;
}

bool Bench::setup(std::string* error) {
  RigConfig config;
  config.dir = workdir_;
  config.image_mb = spec_.image_mb;
  config.inode_slots = spec_.inode_slots;
  config.cache_mb = spec_.cache_mb;
  config.traced = traced_;
  auto rig = Rig::boot(config);
  if (!rig.ok()) {
    *error = "boot: " + rig.error().to_string();
    return false;
  }
  rig_ = std::move(rig).value();
  for (int c = 0; c < kMaxConnections; ++c) {
    auto conn = Connection::open(*rig_, seed_ * 131 + static_cast<std::uint64_t>(c));
    if (!conn.ok()) {
      *error = "connect: " + conn.error().to_string();
      return false;
    }
    conns_.push_back(std::move(conn).value());
  }
  for (Stream& s : streams_) {
    s.cursor = 0;
    s.pool.clear();
    s.deleted.clear();
    s.next_id = id_base(static_cast<int>(&s - streams_.data())) + s.initial_pool.size();
  }
  if (!populate(error)) return false;
  if (!warm_up()) {
    *error = "warm-up: an operation failed";
    return false;
  }
  return true;
}

bool Bench::populate(std::string* error) {
  // Everything the workload starts with: the read set, then (churn) each
  // connection's initial pool. Four connections create in parallel.
  files_.assign(spec_.files, FileRef{});
  std::vector<FileRef*> todo;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    files_[i].id = i + 1;
    files_[i].size = spec_.file_bytes;
    todo.push_back(&files_[i]);
  }
  for (Stream& s : streams_) {
    s.pool = s.initial_pool;
    for (FileRef& f : s.pool) todo.push_back(&f);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kMaxConnections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next++; i < todo.size() && !failed; i = next++) {
        FileRef& f = *todo[i];
        const Bytes data = content_.make(f.id, f.size);
        auto cap = conns_[static_cast<std::size_t>(c)].client->create(data, kPfactor);
        if (!cap.ok()) {
          failed = true;
          return;
        }
        f.cap = cap.value();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed) *error = "populate: a create failed";
  return !failed;
}

bool Bench::warm_up() {
  // Read every file once, the files dealt round-robin to the connections.
  // Cold-read then issues as many uniform reads as there are files per
  // connection, which brings the LRU cache to its steady hit ratio; churn
  // runs its own mix for a moment.
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < spec_.conns; ++c) {
    threads.emplace_back([this, c, &failed] {
      BulletClient& client = *conns_[static_cast<std::size_t>(c)].client;
      for (std::size_t i = static_cast<std::size_t>(c); i < files_.size();
           i += static_cast<std::size_t>(spec_.conns)) {
        if (!check_read(files_[i], client.read(files_[i].cap))) {
          failed = true;
          return;
        }
      }
      if (spec_.name == "cold-read") {
        Rng rng(seed_ ^ (0xC01Dull + static_cast<std::uint64_t>(c)));
        for (std::size_t i = 0; i < files_.size(); ++i) {
          const FileRef& f = files_[rng.next_below(files_.size())];
          if (!check_read(f, client.read(f.cap))) {
            failed = true;
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed || spec_.warmup_s == 0) return !failed;
  const Window w = run_main(spec_.warmup_s, false);
  for (const Sample& x : w.samples) {
    if (!x.ok) return false;
  }
  return true;
}

Sample Bench::execute(int conn, Stream& s, const Op& op) {
  Connection& c = conns_[static_cast<std::size_t>(conn)];
  Sample out;
  out.cls = op.cls;
  if (op.cls == OpClass::kRead) {
    const FileRef& f = files_[op.key];
    const std::uint64_t start = now_ns();
    out.begin_ns = start;
    Result<Bytes> got = c.client->read(f.cap);
    out.lat_ns = now_ns() - start;
    out.rpc_ns = c.last_rpc_ns();
    out.ok = check_read(f, got);
    out.bytes = out.ok ? f.size : 0;
  } else if (op.cls == OpClass::kCreate) {
    FileRef f;
    f.id = s.next_id++;
    f.size = op.size;
    const Bytes data = content_.make(f.id, f.size);
    const std::uint64_t start = now_ns();
    out.begin_ns = start;
    Result<Capability> cap = c.client->create(data, kPfactor);
    out.lat_ns = now_ns() - start;
    out.rpc_ns = c.last_rpc_ns();
    out.ok = cap.ok();
    out.bytes = f.size;
    if (out.ok) {
      f.cap = cap.value();
      s.pool.push_back(f);
    }
  } else {
    if (s.pool.empty()) return out;  // only after failed creates
    const std::size_t i = op.key % s.pool.size();
    const FileRef f = s.pool[i];
    const std::uint64_t start = now_ns();
    out.begin_ns = start;
    const Status st = c.client->erase(f.cap);
    out.lat_ns = now_ns() - start;
    out.rpc_ns = c.last_rpc_ns();
    out.ok = st.ok();
    if (out.ok) {
      s.pool[i] = s.pool.back();
      s.pool.pop_back();
      s.deleted.push_back(f);
    }
  }
  return out;
}

Window Bench::measure(bool traced, const std::function<void(int)>& body,
                      int threads) {
  Window w;
  w.traced = traced;
  w.before = rig_->server().stats();
  for (const Connection& c : conns_) {
    w.retransmits -= c.udp->retransmissions();
    w.pushbacks -= c.udp->pushbacks();
  }
  w.disk_busy_ns = TimedDisk::busy_ns();
  w.disk_errors = TimedDisk::errors();
  tracing_on().store(traced);
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (int c = 0; c < threads; ++c) pool.emplace_back(body, c);
  for (std::thread& t : pool) t.join();
  w.wall_ns = now_ns() - t0;
  w.cpu_ns = process_cpu_ns() - cpu0;
  tracing_on().store(false);
  // Every client is idle again; let background completions (the replica
  // writes a P-FACTOR create leaves behind the ack) finish.
  rig_->server().io_queue().drain();
  w.after = rig_->server().stats();
  for (const Connection& c : conns_) {
    w.retransmits += c.udp->retransmissions();
    w.pushbacks += c.udp->pushbacks();
  }
  w.disk_busy_ns = TimedDisk::busy_ns() - w.disk_busy_ns;
  w.disk_errors = TimedDisk::errors() - w.disk_errors;
  if (rig_->service_log() != nullptr) {
    w.service_spans = rig_->service_log()->take();
    w.disk_spans = rig_->disk_log()->take();
  }
  return w;
}

Window Bench::run_main(double seconds, bool traced) {
  std::vector<std::vector<Sample>> per(static_cast<std::size_t>(spec_.conns));
  const auto span = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t origin = now_ns();
  auto body = [&, end = origin + span](int c) {
    Stream& s = streams_[static_cast<std::size_t>(c)];
    auto& out = per[static_cast<std::size_t>(c)];
    out.reserve(1 << 18);
    while (now_ns() < end && !stop_) {
      const Op& op = s.ops[s.cursor];
      s.cursor = (s.cursor + 1) % s.ops.size();
      out.push_back(execute(c, s, op));
    }
  };
  Window w = measure(traced, body, spec_.conns);
  for (auto& v : per) w.samples.insert(w.samples.end(), v.begin(), v.end());
  w.origin_ns = origin;
  w.span_ns = span;
  return w;
}

Window Bench::run_probe(double seconds, bool traced) {
  std::vector<std::vector<Sample>> per(kProbeConnections);
  const auto span = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t origin = now_ns();
  auto body = [&, end = origin + span](int c) {
    Stream& s = streams_[static_cast<std::size_t>(c)];
    auto& out = per[static_cast<std::size_t>(c)];
    while (now_ns() < end && !stop_) {
      Op create;
      create.cls = OpClass::kCreate;
      create.size = spec_.file_bytes;
      const Sample made = execute(c, s, create);
      out.push_back(made);
      if (!made.ok) continue;
      Op erase;
      erase.cls = OpClass::kDelete;
      erase.key = static_cast<std::uint32_t>(s.pool.size() - 1);
      out.push_back(execute(c, s, erase));
    }
  };
  Window w = measure(traced, body, kProbeConnections);
  for (auto& v : per) w.samples.insert(w.samples.end(), v.begin(), v.end());
  w.origin_ns = origin;
  w.span_ns = span;
  return w;
}

void Bench::check_end_state(const std::vector<Window>& main_windows,
                            std::vector<std::string>* failures) {
  // Every live file a connection created reads back exactly; its most
  // recent deletes no longer read.
  std::uint64_t live = files_.size();
  for (Stream& s : streams_) {
    BulletClient& client = *conns_[static_cast<std::size_t>(&s - streams_.data())].client;
    for (const FileRef& f : s.pool) {
      if (!check_read(f, client.read(f.cap))) {
        failures->push_back("acked create id " + std::to_string(f.id) +
                            " does not read back");
        break;
      }
    }
    const std::size_t recent = std::min(s.deleted.size(), kDeletesChecked);
    for (auto f = s.deleted.end() - static_cast<std::ptrdiff_t>(recent); f != s.deleted.end(); ++f) {
      if (client.read(f->cap).ok()) {
        failures->push_back("deleted file id " + std::to_string(f->id) +
                            " still readable");
        break;
      }
    }
    live += s.pool.size();
  }
  const wire::ServerStats end = rig_->server().stats();
  if (end.files_live != live) {
    failures->push_back("server files_live " + std::to_string(end.files_live) +
                        " != client live set " + std::to_string(live));
  }
  std::uint64_t hits = 0, misses = 0;
  for (const Window& w : main_windows) {
    hits += w.after.cache_hits - w.before.cache_hits;
    misses += w.after.cache_misses - w.before.cache_misses;
  }
  if (spec_.name == "hot-read" && misses != 0) {
    failures->push_back("hot-read missed the cache " + std::to_string(misses) + " times");
  }
  if (spec_.name == "cold-read") {
    const double ratio = hits + misses == 0 ? 1.0 : static_cast<double>(hits) /
                                                        static_cast<double>(hits + misses);
    if (ratio > 0.5) {
      failures->push_back("cold-read hit ratio " + std::to_string(ratio) +
                          " is not well below 1");
    }
  }
}

// --- reduction -----------------------------------------------------------------

std::vector<std::uint64_t> latencies(const std::vector<const Window*>& ws,
                                     OpClass cls) {
  std::vector<std::uint64_t> out;
  for (const Window* w : ws) {
    for (const Sample& s : w->samples) {
      if (s.cls == cls && s.ok) out.push_back(s.lat_ns);
    }
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

using SliceStat = std::function<double(const std::vector<const Sample*>&, double)>;

// `stat(slice, slice_seconds)` for kSlices equal slices (by begin time),
// split evenly over the windows, in order; a slice whose stat is NaN (no
// samples of the kind it measures) is left out.
std::vector<double> slice_values(const std::vector<const Window*>& ws,
                                 const SliceStat& stat) {
  std::vector<double> values;
  const std::uint64_t per = std::max<std::uint64_t>(kSlices / ws.size(), 1);
  for (const Window* w : ws) {
    std::vector<std::vector<const Sample*>> slices(per);
    const std::uint64_t span = std::max<std::uint64_t>(w->span_ns, 1);
    for (const Sample& s : w->samples) {
      const std::uint64_t at = s.begin_ns > w->origin_ns ? s.begin_ns - w->origin_ns : 0;
      slices[std::min<std::uint64_t>(at * per / span, per - 1)].push_back(&s);
    }
    for (const auto& slice : slices) {
      const double v = stat(slice, static_cast<double>(span) / 1e9 / static_cast<double>(per));
      if (!std::isnan(v)) values.push_back(v);
    }
  }
  return values;
}

// Percentile `p` of the latency of successful `cls` ops.
SliceStat percentile_of(OpClass cls, double p) {
  return [cls, p](const std::vector<const Sample*>& slice, double) {
    std::vector<std::uint64_t> v;
    for (const Sample* s : slice) {
      if (s->cls == cls && s->ok) v.push_back(s->lat_ns);
    }
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    return static_cast<double>(nearest_rank(v, p)) / 1e3;
  };
}

std::vector<std::uint64_t> span_durations(const std::vector<const Window*>& ws,
                                          bool disk, int cls, int kind) {
  std::vector<std::uint64_t> out;
  for (const Window* w : ws) {
    for (const Span& s : disk ? w->disk_spans : w->service_spans) {
      if ((cls < 0 || static_cast<int>(s.cls) == cls) &&
          (kind < 0 || static_cast<int>(s.kind) == kind)) {
        out.push_back(s.dur_ns);
      }
    }
  }
  return out;
}

// Ledger sums over traced windows for one class (cls < 0: every class).
LedgerSums ledger_sums(const std::vector<const Window*>& ws, int cls) {
  LedgerSums s;
  for (const Window* w : ws) {
    for (const Sample& x : w->samples) {
      if (cls >= 0 && static_cast<int>(x.cls) != cls) continue;
      ++s.ops;
      s.op_ns += x.lat_ns;
      s.rpc_ns += x.rpc_ns;
      if (x.rpc_ns > 0) ++s.rpc_calls;
    }
    for (const Span& x : w->service_spans) {
      if (cls >= 0 && static_cast<int>(x.cls) != cls) continue;
      ++s.service_calls;
      s.service_ns += x.dur_ns;
    }
    for (const Span& x : w->disk_spans) {
      if (cls >= 0 && static_cast<int>(x.cls) != cls) continue;
      s.disk_ns += x.dur_ns;
    }
  }
  return s;
}

template <typename F>
std::uint64_t stat_delta(const std::vector<const Window*>& ws, F field) {
  std::uint64_t d = 0;
  for (const Window* w : ws) d += field(w->after) - field(w->before);
  return d;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- output --------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw_json) {
    out_ += (out_.empty() ? "{" : ",") + ("\"" + key + "\":") + raw_json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return add(key, ::num(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, "\"" + v + "\"");  // callers pass no quotes or backslashes
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;  // scratch directory for the disk images
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string provenance_json() {
  bench::JsonWriter json;
  json.begin_object();
  bench::stamp_provenance(json, "perfbench_e2e");
  json.end_object();
  return json.str();
}

std::string config_json(const WorkloadSpec& w, const Args& a) {
  JsonObject server;
  server.num("replicas", Rig::kReplicas)
      .num("block_size", Rig::kBlockSize)
      .num("image_mb", static_cast<double>(w.image_mb))
      .num("inode_slots", w.inode_slots)
      .num("cache_mb", static_cast<double>(w.cache_mb))
      .num("workers", DaemonFlags::kWorkers)
      .num("io_threads", DaemonFlags::kIoThreads)
      .num("max_queue", static_cast<double>(DaemonFlags::kMaxQueue))
      .num("max_client_queue", static_cast<double>(DaemonFlags::kMaxClientQueue))
      .num("max_inflight", static_cast<double>(DaemonFlags::kMaxInflight))
      .num("shed_retry_ms", DaemonFlags::kShedRetryMs)
      .str("trace_sampling", "obs default");
  JsonObject workload;
  workload.str("name", w.name)
      .str("why", w.why)
      .str("loop", "closed")
      .num("connections", w.conns)
      .num("read_set_files", static_cast<double>(w.files))
      .num("file_bytes", w.file_bytes)
      .num("pfactor", kPfactor)
      .num("seconds", a.seconds);
  if (w.writes) {
    workload.num("read_share", w.read_share)
        .num("zipf_s", w.zipf_s)
        .num("live_pool_per_connection", static_cast<double>(w.pool_per_conn))
        .str("create_sizes", "1,16,512,4096,65536");
  } else {
    workload.num("probe_share", kProbeShare);
  }
  JsonObject env;
  env.str("network", "loopback UDP (127.0.0.1), not a link")
      .str("flush_policy",
           "data-path writes are pwrite with no fdatasync; images sit on the "
           "host filesystem, so the disk is page-cache-backed")
      .str("clients", "one process, one UDP connection per client thread");
  JsonObject out;
  out.add("server", server.done()).add("workload", workload.done()).add("environment", env.done());
  return out.done();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, const std::string& report) {
  JsonObject m;
  for (const Metric& x : metrics) {
    JsonObject v;
    v.num("value", x.value).str("unit", x.unit);
    m.add(x.name, v.done());
  }
  std::printf("%s\n", report.c_str());
  JsonObject result;
  result.add("correct", correct ? "true" : "false")
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .add("metrics", m.done());
  std::printf("%s\n", result.done().c_str());
  std::fflush(stdout);
}

std::string timing_json(const Timing& t) {
  JsonObject o;
  o.num("count", static_cast<double>(t.count)).num("mean_us", t.mean_us)
      .num("p50_us", t.p50_us).num("p99_us", t.p99_us);
  return o.done();
}

std::string ledger_json(const LedgerSums& s) {
  const Ledger l = make_ledger(s);
  JsonObject o;
  o.num("ops", static_cast<double>(l.ops))
      .num("op_us_mean", l.op_us_mean)
      .num("client_self_us", l.client_self_us)
      .num("rpc_self_us", l.rpc_self_us)
      .num("bullet_self_us", l.bullet_self_us)
      .num("disk_self_us", l.disk_self_us)
      .num("layer_sum_us", l.sum_us())
      .num("rpc_calls", static_cast<double>(s.rpc_calls))
      .num("service_calls", static_cast<double>(s.service_calls))
      .add("nested", l.consistent() ? "true" : "false");
  return o.done();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload hot-read|cold-read|churn --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  const WorkloadSpec spec = spec_for(args.workload);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  Bench bench(spec, args.seed, traced, args.workdir);
  std::fprintf(stderr, "%s: op sequence hash %s\n", spec.name.c_str(),
               hex(bench.op_hash()).c_str());

  // Set-up: format, boot, populate, warm-up — repeated, the last one kept.
  std::vector<double> setup_s;
  const int reps = traced ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    if (r > 0) bench.teardown();
    std::string error;
    const std::uint64_t t0 = now_ns();
    const bool ok = bench.setup(&error);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   bench.wrong().empty() ? error.c_str() : bench.wrong().c_str());
      return 1;
    }
  }

  // Measured windows. Traced runs alternate untraced and traced quarters
  // so both see the same server state drift.
  std::vector<Window> main_windows;
  std::vector<Window> probe_windows;
  const double main_s = spec.writes || traced ? args.seconds
                                              : args.seconds * (1 - kProbeShare);
  if (traced) {
    for (int q = 0; q < 4; ++q) {
      main_windows.push_back(bench.run_main(main_s / 4, q % 2 == 1));
    }
  } else if (spec.writes) {
    main_windows.push_back(bench.run_main(main_s, false));
  } else {
    // The CREATE+DELETE phase comes in kProbeChunks pieces between reads,
    // so a few seconds of host write-back stalls cannot cover all of it.
    for (int k = 0; k < kProbeChunks; ++k) {
      main_windows.push_back(bench.run_main(main_s / kProbeChunks, false));
      probe_windows.push_back(bench.run_probe(args.seconds * kProbeShare / kProbeChunks, false));
    }
  }

  std::vector<std::string> failures;
  if (bench.wrong().empty()) bench.check_end_state(main_windows, &failures);
  if (!bench.wrong().empty()) failures.insert(failures.begin(), bench.wrong());

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* list : {&main_windows, &probe_windows}) {
    for (const Window& w : *list) {
      attempted += w.samples.size();
      for (const Sample& s : w.samples) failed += s.ok ? 0 : 1;
    }
  }

  std::vector<const Window*> all_main, traced_w, untraced_w, ops_w;
  for (const Window& w : main_windows) {
    all_main.push_back(&w);
    (w.traced ? traced_w : untraced_w).push_back(&w);
  }
  // CREATE/DELETE timings come from the probe on the read workloads.
  ops_w = spec.writes ? all_main : std::vector<const Window*>{};
  for (const Window& w : probe_windows) ops_w.push_back(&w);

  std::vector<Metric> metrics;
  JsonObject detail;
  const auto r = [](OpClass c) { return static_cast<int>(c); };
  if (!traced) {
    const std::vector<const Window*>& main_w = all_main;
    const std::vector<const Window*>& ops_win = ops_w;
    const SliceStat ops_per_s = [](const std::vector<const Sample*>& slice, double secs) {
      double ok = 0;
      for (const Sample* s : slice) ok += s->ok ? 1 : 0;
      return ok / secs;
    };
    const SliceStat read_mb_per_s = [](const std::vector<const Sample*>& slice, double secs) {
      double bytes = 0;
      for (const Sample* s : slice) bytes += s->cls == OpClass::kRead ? s->bytes : 0;
      return bytes / 1e6 / secs;
    };
    struct Sliced {
      const char* name;
      const char* unit;
      const std::vector<const Window*>& windows;
      SliceStat stat;
      bool higher_is_better;
    };
    const Sliced sliced[] = {
        {"read_p50_us", "us", main_w, percentile_of(OpClass::kRead, 50), false},
        {"read_p99_us", "us", main_w, percentile_of(OpClass::kRead, 99), false},
        {"create_p50_us", "us", ops_win, percentile_of(OpClass::kCreate, 50), false},
        {"create_p99_us", "us", ops_win, percentile_of(OpClass::kCreate, 99), false},
        {"delete_p50_us", "us", ops_win, percentile_of(OpClass::kDelete, 50), false},
        {"delete_p99_us", "us", ops_win, percentile_of(OpClass::kDelete, 99), false},
        {"ops_per_s", "1/s", main_w, ops_per_s, true},
        {"read_mb_per_s", "MB/s", main_w, read_mb_per_s, true},
    };
    metrics.push_back({"setup_s", "s", median(setup_s)});
    JsonObject slices;
    for (const Sliced& m : sliced) {
      const std::vector<double> values = slice_values(m.windows, m.stat);
      metrics.push_back({m.name, m.unit, quarter_best(values, m.higher_is_better)});
      std::string list;
      for (const double v : values) list += (list.empty() ? "[" : ",") + num(v);
      slices.add(m.name, list.empty() ? "[]" : list + "]");
    }
    metrics.push_back({"success_ratio", "ratio",
                       1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted))});
    JsonObject setups, pooled;
    for (std::size_t i = 0; i < setup_s.size(); ++i) setups.num(std::to_string(i), setup_s[i]);
    pooled.add("read", timing_json(summarize(latencies(all_main, OpClass::kRead))))
        .add("create", timing_json(summarize(latencies(ops_w, OpClass::kCreate))))
        .add("delete", timing_json(summarize(latencies(ops_w, OpClass::kDelete))));
    detail.add("pooled", pooled.done())
        .add("setup_s_each", setups.done())
        .num("fail_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)))
        .add("slices", slices.done());
  } else {
    const std::vector<const Window*>& tw = traced_w;
    const LedgerSums all = ledger_sums(tw, -1);
    const Ledger pooled = make_ledger(all);
    const Ledger reads = make_ledger(ledger_sums(tw, r(OpClass::kRead)));
    const double ops = static_cast<double>(all.ops);
    std::uint64_t wall = 0, read_ops = 0, creates = 0, served = 0, created = 0;
    std::vector<std::uint64_t> rpc_ns;
    for (const Window* w : tw) {
      wall += w->wall_ns;
      for (const Sample& s : w->samples) {
        rpc_ns.push_back(s.rpc_ns);
        if (s.cls == OpClass::kRead) {
          ++read_ops;
          served += s.bytes;
        } else if (s.cls == OpClass::kCreate) {
          ++creates;
          created += s.bytes;
        }
      }
    }
    std::uint64_t disk_reads = 0, disk_read_bytes = 0, create_writes = 0,
                  create_write_bytes = 0, flushes = 0, busy = 0, disk_errors = 0;
    for (const Window* w : tw) {
      busy += w->disk_busy_ns;
      for (const Span& s : w->disk_spans) {
        if (s.kind == IoKind::kRead) {
          ++disk_reads;
          disk_read_bytes += s.bytes;
        } else if (s.kind == IoKind::kWrite && s.cls == OpClass::kCreate) {
          ++create_writes;
          create_write_bytes += s.bytes;
        } else if (s.kind == IoKind::kFlush) {
          ++flushes;
        }
      }
    }
    for (const Window* w : all_main) disk_errors += w->disk_errors;
    std::uint64_t u_ops = 0, u_cpu = 0, retransmits = 0, pushbacks = 0;
    for (const Window* w : untraced_w) {
      u_ops += w->samples.size();
      u_cpu += w->cpu_ns;
    }
    for (const Window* w : tw) {
      retransmits += w->retransmits;
      pushbacks += w->pushbacks;
    }
    const Timing rpc_t = summarize(rpc_ns);
    const Timing read_svc = summarize(span_durations(tw, false, r(OpClass::kRead), -1));
    const Timing create_svc = summarize(span_durations(tw, false, r(OpClass::kCreate), -1));
    const Timing delete_svc = summarize(span_durations(tw, false, r(OpClass::kDelete), -1));
    const Timing disk_read = summarize(span_durations(tw, true, -1, static_cast<int>(IoKind::kRead)));
    const Timing disk_write = summarize(span_durations(tw, true, -1, static_cast<int>(IoKind::kWrite)));
    const double u_p50 = summarize(latencies(untraced_w, OpClass::kRead)).p50_us;
    const double t_p50 = summarize(latencies(tw, OpClass::kRead)).p50_us;
    const wire::ServerStats& end = main_windows.back().after;
    const auto d = [&](auto field) { return static_cast<double>(stat_delta(tw, field)); };
    const double hits = d([](const wire::ServerStats& s) { return s.cache_hits; });
    const double misses = d([](const wire::ServerStats& s) { return s.cache_misses; });
    const double evictions = d([](const wire::ServerStats& s) { return s.cache_evictions; });
    metrics = {
        {"client.self_us_mean", "us", pooled.client_self_us},
        {"rpc.self_us_mean", "us", pooled.rpc_self_us},
        {"rpc.call_us_p50", "us", rpc_t.p50_us},
        {"rpc.call_us_p99", "us", rpc_t.p99_us},
        {"rpc.rx_batches_per_op", "count/op",
         ratio(d([](const wire::ServerStats& s) { return s.rx_batches; }), ops)},
        {"rpc.worker_wakeups_per_op", "count/op",
         ratio(d([](const wire::ServerStats& s) { return s.worker_wakeups; }), ops)},
        {"rpc.retransmits_per_kop", "count/kop", ratio(1e3 * static_cast<double>(retransmits), ops)},
        {"rpc.pushbacks_per_kop", "count/kop", ratio(1e3 * static_cast<double>(pushbacks), ops)},
        {"rpc.shed_per_kop", "count/kop",
         ratio(1e3 * d([](const wire::ServerStats& s) {
                 return s.shed_pushback + s.shed_dropped + s.deadline_expired;
               }),
               ops)},
        {"rpc.rx_queue_depth_max", "count", static_cast<double>(end.rx_queue_depth_max)},
        {"bullet.self_us_mean", "us", pooled.bullet_self_us},
        {"bullet.read_service_us_p50", "us", read_svc.p50_us},
        {"bullet.read_service_us_p99", "us", read_svc.p99_us},
        {"bullet.lock_wait_us_per_op", "us/op",
         ratio(d([](const wire::ServerStats& s) { return s.lock_wait_ns; }) / 1e3, ops)},
        {"bullet.bytes_copied_per_byte_served", "B/B",
         ratio(d([](const wire::ServerStats& s) { return s.bytes_copied; }),
               d([](const wire::ServerStats& s) { return s.bytes_served; }))},
        {"bullet.scratch_allocs_per_op", "count/op",
         ratio(d([](const wire::ServerStats& s) { return s.scratch_allocs; }), ops)},
        {"bullet.cache_hit_ratio", "ratio", ratio(hits, hits + misses)},
        {"bullet.evictions_per_op", "count/op", ratio(evictions, ops)},
        {"bullet.evict_scans_per_eviction", "count/eviction",
         ratio(d([](const wire::ServerStats& s) { return s.evict_scans; }), evictions)},
        {"bullet.pinned_evict_defers", "count",
         d([](const wire::ServerStats& s) { return s.pinned_evict_defers; })},
        {"bullet.inflight_sheds", "count",
         d([](const wire::ServerStats& s) { return s.inflight_sheds; })},
        {"bullet.create_service_us_p50", "us", create_svc.p50_us},
        {"bullet.create_service_us_p99", "us", create_svc.p99_us},
        {"bullet.delete_service_us_p50", "us", delete_svc.p50_us},
        {"bullet.delete_service_us_p99", "us", delete_svc.p99_us},
        {"bullet.disk_holes_end", "count", static_cast<double>(end.disk_holes)},
        {"bullet.largest_hole_share_end", "ratio",
         ratio(static_cast<double>(end.disk_largest_hole_bytes),
               static_cast<double>(end.disk_free_bytes))},
        {"disk.self_us_mean", "us", pooled.disk_self_us},
        {"disk.read_calls_per_op", "count/op",
         ratio(static_cast<double>(disk_reads), static_cast<double>(read_ops))},
        {"disk.read_us_p50", "us", disk_read.p50_us},
        {"disk.read_us_p99", "us", disk_read.p99_us},
        {"disk.read_bytes_per_byte_served", "B/B",
         ratio(static_cast<double>(disk_read_bytes), static_cast<double>(served))},
        {"disk.busy_share", "ratio", ratio(static_cast<double>(busy), static_cast<double>(wall))},
        {"disk.queue_depth_max", "count", static_cast<double>(end.disk_queue_depth_max)},
        {"disk.write_calls_per_create", "count/op",
         ratio(static_cast<double>(create_writes), static_cast<double>(creates))},
        {"disk.write_us_p50", "us", disk_write.p50_us},
        {"disk.write_us_p99", "us", disk_write.p99_us},
        {"disk.write_bytes_per_byte_created", "B/B",
         ratio(static_cast<double>(create_write_bytes), static_cast<double>(created))},
        {"disk.flushes", "count", static_cast<double>(flushes)},
        {"disk.io_errors", "count",
         static_cast<double>(disk_errors) +
             d([](const wire::ServerStats& s) { return s.io_errors; })},
        {"host.cpu_us_per_op", "us/op",
         ratio(static_cast<double>(u_cpu) / 1e3, static_cast<double>(u_ops))},
        {"trace.overhead_pct", "%", ratio(100.0 * (t_p50 - u_p50), u_p50)},
        {"ledger.op_us_mean", "us", pooled.op_us_mean},
        {"ledger.read_client_share", "ratio", ratio(reads.client_self_us, reads.op_us_mean)},
        {"ledger.read_rpc_share", "ratio", ratio(reads.rpc_self_us, reads.op_us_mean)},
        {"ledger.read_bullet_share", "ratio", ratio(reads.bullet_self_us, reads.op_us_mean)},
        {"ledger.read_disk_share", "ratio", ratio(reads.disk_self_us, reads.op_us_mean)},
    };
    JsonObject ledger;
    ledger.add("all", ledger_json(all))
        .add("read", ledger_json(ledger_sums(tw, r(OpClass::kRead))))
        .add("create", ledger_json(ledger_sums(tw, r(OpClass::kCreate))))
        .add("delete", ledger_json(ledger_sums(tw, r(OpClass::kDelete))));
    JsonObject boundaries;
    boundaries.add("rpc_call", timing_json(rpc_t))
        .add("read_service", timing_json(read_svc))
        .add("create_service", timing_json(create_svc))
        .add("delete_service", timing_json(delete_svc))
        .add("disk_read", timing_json(disk_read))
        .add("disk_write", timing_json(disk_write));
    detail.add("ledger", ledger.done())
        .add("boundaries", boundaries.done())
        .num("untraced_read_p50_us", u_p50)
        .num("traced_read_p50_us", t_p50)
        .num("span_drops", static_cast<double>(bench.rig().service_log()->dropped() +
                                               bench.rig().disk_log()->dropped()));
    for (int c = -1; c < kOpClasses; ++c) {
      if (!make_ledger(ledger_sums(tw, c)).consistent()) {
        failures.push_back("ledger: a layer's self time is negative (class " +
                           std::to_string(c) + ")");
      }
    }
  }

  JsonObject failures_json;
  for (std::size_t i = 0; i < failures.size(); ++i) failures_json.str(std::to_string(i), failures[i]);
  JsonObject report;
  report.add("provenance", provenance_json())
      .num("seed", static_cast<double>(args.seed))
      .num("trace", args.trace)
      .str("op_hash", hex(bench.op_hash()))
      .add("config", config_json(spec, args))
      .add("detail", detail.done())
      .add("check_failures", failures_json.done());
  bench.teardown();
  print_result(failures.empty(), attempted, failed, metrics, "{\"report\":" + report.done() + "}");
  for (const std::string& f : failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}
