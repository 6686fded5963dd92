#include "rpc/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <set>
#include <unordered_map>

#include "common/log.h"
#include "common/rng.h"
#include "common/serde.h"
#include "obs/trace.h"

namespace bullet::rpc {
namespace {

constexpr char kLog[] = "udp";
constexpr std::uint32_t kFragMagic = 0x424C4652;  // "BLFR"
constexpr std::size_t kFragHeader = 4 + 8 + 2 + 2 + 4;  // magic,id,idx,cnt,len
// Datagrams per sendmmsg batch.
constexpr std::size_t kIoBatch = 32;

Error errno_error(const char* what) {
  return Error(ErrorCode::io_error,
               std::string(what) + ": " + std::strerror(errno));
}

Bytes make_fragment_header(std::uint64_t message_id, std::uint16_t index,
                           std::uint16_t count, std::uint32_t payload_len) {
  Writer w(kFragHeader);
  w.u32(kFragMagic);
  w.u64(message_id);
  w.u16(index);
  w.u16(count);
  w.u32(payload_len);
  return std::move(w).take();
}

// One fragment on the wire: header + payload slice.
Bytes make_fragment(std::uint64_t message_id, std::uint16_t index,
                    std::uint16_t count, ByteSpan payload) {
  Writer w(kFragHeader + payload.size());
  w.u32(kFragMagic);
  w.u64(message_id);
  w.u16(index);
  w.u16(count);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return std::move(w).take();
}

struct FragmentView {
  std::uint64_t message_id = 0;
  std::uint16_t index = 0;
  std::uint16_t count = 0;
  ByteSpan payload;
};

Result<FragmentView> parse_fragment(ByteSpan datagram) {
  Reader r(datagram);
  FragmentView f;
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t magic, r.u32());
  if (magic != kFragMagic) {
    return Error(ErrorCode::bad_argument, "not a fragment");
  }
  BULLET_ASSIGN_OR_RETURN(f.message_id, r.u64());
  BULLET_ASSIGN_OR_RETURN(f.index, r.u16());
  BULLET_ASSIGN_OR_RETURN(f.count, r.u16());
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t len, r.u32());
  BULLET_ASSIGN_OR_RETURN(f.payload, r.bytes(len));
  if (!r.done() || f.count == 0 || f.index >= f.count) {
    return Error(ErrorCode::bad_argument, "malformed fragment");
  }
  return f;
}

// Reassembly buffer for one message.
struct Assembly {
  std::uint16_t count = 0;
  std::uint16_t received = 0;
  std::uint64_t first_ns = 0;  // first-fragment arrival (0 = not tracing)
  std::vector<Bytes> parts;

  // Returns true once complete.
  bool add(const FragmentView& f) {
    if (count == 0) {
      count = f.count;
      parts.assign(count, Bytes{});
    }
    if (f.count != count || f.index >= count) return false;
    if (parts[f.index].empty()) {
      parts[f.index].assign(f.payload.begin(), f.payload.end());
      ++received;
    }
    return received == count;
  }

  // The whole message, once add() returned true. A one-fragment message
  // is moved out, not copied a second time.
  Bytes take() {
    if (parts.size() == 1) return std::move(parts[0]);
    std::size_t total = 0;
    for (const Bytes& part : parts) total += part.size();
    Bytes out;
    out.reserve(total);
    for (const Bytes& part : parts) append(out, part);
    return out;
  }
};

// Fragment-and-send via individual sendto calls (client side: requests are
// small, batching buys nothing).
Status send_message(int fd, const sockaddr_in& to, std::uint64_t message_id,
                    ByteSpan message) {
  const std::size_t count =
      message.empty() ? 1
                      : (message.size() + kFragmentPayload - 1) /
                            kFragmentPayload;
  if (count > 0xFFFF) return Error(ErrorCode::too_large, "message too large");
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t offset = i * kFragmentPayload;
    const std::size_t len =
        std::min(kFragmentPayload, message.size() - offset);
    const Bytes frag =
        make_fragment(message_id, static_cast<std::uint16_t>(i),
                      static_cast<std::uint16_t>(count),
                      message.subspan(offset, len));
    const ssize_t sent =
        ::sendto(fd, frag.data(), frag.size(), 0,
                 reinterpret_cast<const sockaddr*>(&to), sizeof to);
    if (sent < 0) return errno_error("sendto");
  }
  return Status::success();
}

// Fragment-and-send via sendmmsg, two iovecs per fragment: the 20-byte
// header (stack) and a slice of `message` in place. The payload — often a
// large borrowed-cache read reply — is never copied into per-fragment
// buffers; the kernel gathers each datagram from the two pieces.
Status send_message_batched(int fd, const sockaddr_in& to,
                            std::uint64_t message_id, ByteSpan message) {
  const std::size_t count =
      message.empty() ? 1
                      : (message.size() + kFragmentPayload - 1) /
                            kFragmentPayload;
  if (count > 0xFFFF) return Error(ErrorCode::too_large, "message too large");
  sockaddr_in dest = to;
  std::array<Bytes, kIoBatch> headers;
  std::array<std::array<iovec, 2>, kIoBatch> iovs;
  std::array<mmsghdr, kIoBatch> msgs;
  for (std::size_t first = 0; first < count; first += kIoBatch) {
    const std::size_t batch = std::min(kIoBatch, count - first);
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t idx = first + j;
      const std::size_t offset = idx * kFragmentPayload;
      const std::size_t len =
          message.empty() ? 0
                          : std::min(kFragmentPayload, message.size() - offset);
      headers[j] = make_fragment_header(
          message_id, static_cast<std::uint16_t>(idx),
          static_cast<std::uint16_t>(count), static_cast<std::uint32_t>(len));
      iovs[j][0] = {headers[j].data(), kFragHeader};
      iovs[j][1] = {const_cast<std::uint8_t*>(message.data() + offset), len};
      msgs[j] = mmsghdr{};
      msgs[j].msg_hdr.msg_name = &dest;
      msgs[j].msg_hdr.msg_namelen = sizeof dest;
      msgs[j].msg_hdr.msg_iov = iovs[j].data();
      msgs[j].msg_hdr.msg_iovlen = len > 0 ? 2 : 1;
    }
    std::size_t done = 0;
    while (done < batch) {
      const int sent =
          ::sendmmsg(fd, msgs.data() + done, static_cast<unsigned>(batch - done), 0);
      if (sent < 0) {
        if (errno == EINTR) continue;
        return errno_error("sendmmsg");
      }
      done += static_cast<std::size_t>(sent);
    }
  }
  return Status::success();
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

Status set_recv_timeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return Status::success();
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return errno_error("setsockopt");
  }
  return Status::success();
}

Result<int> make_socket(std::uint16_t bind_port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return errno_error("socket");
  sockaddr_in addr = loopback(bind_port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Error e = errno_error("bind");
    ::close(fd);
    return e;
  }
  // Large messages burst many fragments back-to-back; a roomy receive
  // buffer keeps the kernel from dropping them before the reader drains
  // the socket (clamped by net.core.rmem_max).
  const int kBufferBytes = 4 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kBufferBytes,
                     sizeof kBufferBytes);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kBufferBytes,
                     sizeof kBufferBytes);
  const Status st = set_recv_timeout(fd, timeout_ms);
  if (!st.ok()) {
    ::close(fd);
    return Error(ErrorCode::io_error, st.to_string());
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

// Key identifying one client endpoint.
std::uint64_t peer_key(const sockaddr_in& addr) {
  return (static_cast<std::uint64_t>(addr.sin_addr.s_addr) << 16) |
         addr.sin_port;
}

std::uint32_t load_le_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_le_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_le_u32(p)) |
         (static_cast<std::uint64_t>(load_le_u32(p + 4)) << 32);
}

void store_le_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// O(1) peek at a reassembled request's optional trailer without decoding
// the request: capability ‖ opcode u16 ‖ body-length u32 ‖ body ‖ trailer.
// A 16-byte trailer means the client is overload-aware (can be answered
// with BS_PUSHBACK) and its last 8 bytes are the remaining time budget in
// microseconds. Malformed wires peek as "no trailer" — the shed path then
// drops them, and the execute path reports bad_argument as before.
struct TrailerPeek {
  bool deadline_capable = false;
  std::uint64_t deadline_us = 0;
};

TrailerPeek peek_trailer(ByteSpan wire) {
  TrailerPeek out;
  const std::size_t header = Capability::kWireSize + 2 + 4;
  if (wire.size() < header) return out;
  const std::uint64_t body_len = load_le_u32(wire.data() + header - 4);
  if (wire.size() < header + body_len) return out;
  if (wire.size() - header - body_len == 16) {
    out.deadline_capable = true;
    out.deadline_us = load_le_u64(wire.data() + wire.size() - 8);
  }
  return out;
}

// The encoded BS_PUSHBACK reply: status retry_later, payload = u32
// retry-after milliseconds. Built directly by the receiving thread —
// shedding a request costs one small allocation and one sendmmsg, never a
// service dispatch or a disk touch.
Bytes make_pushback_wire(std::uint32_t retry_after_ms) {
  Reply reply = Reply::error(ErrorCode::retry_later);
  Writer w(4);
  w.u32(retry_after_ms);
  reply.body = std::move(w).take();
  return reply.encode();
}

// Parse a pushback reply's advised delay (client side).
std::uint32_t pushback_retry_after_ms(const Reply& reply, int fallback_ms) {
  Reader r(reply.body);
  const auto ms = r.u32();
  if (!ms.ok() || !r.done()) {
    return static_cast<std::uint32_t>(std::max(1, fallback_ms));
  }
  return std::max<std::uint32_t>(1, ms.value());
}

}  // namespace

// --- reply cache -------------------------------------------------------------

void ReplyCache::set_bounds(std::size_t max_entries, std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
}

void ReplyCache::insert(std::uint64_t peer, std::uint64_t message_id,
                        std::shared_ptr<const Bytes> reply) {
  // Evicted payloads are collected here and destroyed after the lock is
  // released (a large Bytes free has no business inside the critical
  // section, and a concurrent sender may still hold its own reference).
  std::vector<std::shared_ptr<const Bytes>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Key key{peer, message_id};
    const auto [it, inserted] = entries_.emplace(key, std::move(reply));
    if (!inserted) return;  // already cached
    bytes_ += it->second->size();
    fifo_.push_back(key);
    // Held keys (requests currently executing, or whose reply is between
    // insert and first transmission) are rotated to the back instead of
    // evicted; `rotations` bounds the scan so the loop terminates when
    // everything left is held (the bounds are then exceeded transiently).
    std::size_t rotations = 0;
    while (fifo_.size() > 1 &&
           (fifo_.size() > max_entries_ || bytes_ > max_bytes_) &&
           rotations < fifo_.size()) {
      const Key victim = fifo_.front();
      fifo_.pop_front();
      if (held_.count(victim) > 0) {
        fifo_.push_back(victim);
        ++rotations;
        continue;
      }
      const auto vit = entries_.find(victim);
      bytes_ -= vit->second->size();
      dropped.push_back(std::move(vit->second));
      entries_.erase(vit);
      ++evictions_;
    }
  }
}

void ReplyCache::hold(std::uint64_t peer, std::uint64_t message_id) {
  std::lock_guard<std::mutex> lock(mu_);
  held_.insert(Key{peer, message_id});
}

void ReplyCache::release(std::uint64_t peer, std::uint64_t message_id) {
  std::lock_guard<std::mutex> lock(mu_);
  held_.erase(Key{peer, message_id});
}

std::shared_ptr<const Bytes> ReplyCache::find(std::uint64_t peer,
                                              std::uint64_t message_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(Key{peer, message_id});
  return it == entries_.end() ? nullptr : it->second;
}

std::size_t ReplyCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ReplyCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t ReplyCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

// --- server ------------------------------------------------------------------

struct UdpServer::Impl : std::enable_shared_from_this<UdpServer::Impl> {
  int fd = -1;
  sockaddr_in self{};  // the bound address; unpark() rings it
  UdpServerOptions options;
  ReplyCache replies{128, 8ull << 20};
  IoCounters io;

  std::mutex services_mu;
  std::unordered_map<std::uint64_t, Service*> services;  // by public port

  // Every thread receives; see serve_loop().
  std::vector<std::thread> threads;
  // Requests that may execute at once: `workers`, or 1 in inline mode.
  unsigned slots = 1;
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicates{0};

  // Receive-side state shared by all threads: the loss injector and the
  // reassembly of multi-fragment messages, keyed (peer, message id).
  std::mutex rx_mu;
  Rng loss_rng{1};
  std::map<std::pair<std::uint64_t, std::uint64_t>, Assembly> assembling;

  // Dispatch state. Each client endpoint gets an ordered queue; at most one
  // thread runs a given client at a time, so requests from one client
  // execute in arrival order while different clients proceed in parallel.
  // `pending_ids` suppresses re-execution of a retransmitted request that
  // is already queued or executing (the reply cache covers the
  // already-answered case). Client entries are never erased — one small
  // record per distinct endpoint.
  struct WorkItem {
    sockaddr_in from{};
    std::uint64_t message_id = 0;
    Bytes wire;
    // Trace timestamps, 0 when tracing is off: first-fragment arrival and
    // reassembly-complete/enqueue time (the queue span's start).
    std::uint64_t rx_first_ns = 0;
    std::uint64_t rx_done_ns = 0;
    // Absolute steady-clock expiry (0 = no deadline), stamped at admission
    // from the request's relative budget. Checked again at dequeue so an
    // expired request costs an O(1) drop, not a dispatch.
    std::uint64_t deadline_ns = 0;
  };
  struct ClientState {
    std::deque<WorkItem> pending;
    std::set<std::uint64_t> pending_ids;
    bool scheduled = false;  // in `ready` or owned by a thread
  };
  std::mutex work_mu;
  std::unordered_map<std::uint64_t, ClientState> clients;
  std::deque<std::uint64_t> ready;  // clients with work, not yet owned
  std::size_t total_pending = 0;    // queued (not yet dequeued) across clients
  unsigned executing = 0;           // threads inside run_client()

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  Service* find_service(std::uint64_t port) {
    std::lock_guard<std::mutex> lock(services_mu);
    const auto it = services.find(port);
    return it == services.end() ? nullptr : it->second;
  }

  // Everything a deferred reply needs to find its way back to the wire
  // after the dispatching thread has moved on. Holds a shared_ptr to the
  // Impl so the socket and queue state outlive even a stopped server while
  // a continuation is pending.
  struct RespondCtx {
    std::shared_ptr<Impl> impl;
    sockaddr_in from{};
    std::uint64_t peer = 0;
    std::uint64_t message_id = 0;
    // The request carried a deadline trailer, i.e. the client understands
    // BS_PUSHBACK. A service-level retry_later reply to anyone else is
    // converted into a silent drop (timeout/backoff handles it).
    bool pushback_ok = false;
    // The trace is heap-owned by the context (not stack-owned by
    // execute()) so it survives a park; finish() destroys it on whichever
    // thread delivers the reply, publishing the spans.
    std::unique_ptr<obs::RequestTrace> trace;
    // Handoff flag between the dispatching thread and finish(): whoever
    // flips it second does the queue bookkeeping, so the sync case (finish
    // ran inside handle_async) and the parked case (finish runs later from
    // a completion thread) both clean up exactly once.
    std::atomic<bool> completed{false};
  };

  // Decode and dispatch; the reply path — encode, cache, send — lives in
  // finish(), which the service's responder invokes either synchronously
  // inside handle_async() or later from a disk-completion thread. The
  // returned context lets the caller detect a park (completed still false).
  //
  // `rx_first_ns`/`rx_done_ns`/`dequeue_ns` are trace timestamps (all 0
  // when tracing is off): the rx span covers fragment reassembly, the
  // queue span covers enqueue→dequeue. The RequestTrace is constructed here
  // — after decode, so it knows the opcode and the client's trace id — and
  // becomes the thread's current trace for the dispatch; the service's own
  // spans (lock, cache, disk) attach to it, and a service that parks
  // carries it across the continuation via RequestTrace::suspend()/resume().
  std::shared_ptr<RespondCtx> execute(const sockaddr_in& from,
                                      std::uint64_t peer,
                                      std::uint64_t message_id,
                                      const Bytes& wire,
                                      std::uint64_t rx_first_ns,
                                      std::uint64_t rx_done_ns,
                                      std::uint64_t dequeue_ns) {
    auto ctx = std::make_shared<RespondCtx>();
    ctx->impl = shared_from_this();
    ctx->from = from;
    ctx->peer = peer;
    ctx->message_id = message_id;
    // Exempt this request from reply-cache eviction for the whole
    // execute->reply window (released in finish()): shed-driven churn must
    // not evict a reply before its first transmission, or a lost send plus
    // a retransmit would re-execute.
    replies.hold(peer, message_id);
    auto request = Request::decode(wire);
    if (!request.ok()) {
      finish(ctx, Reply::error(ErrorCode::bad_argument));
      return ctx;
    }
    ctx->pushback_ok = request.value().deadline_us != 0;
    ctx->trace = std::make_unique<obs::RequestTrace>(request.value().opcode,
                                                     request.value().trace_id);
    if (ctx->trace->active()) {
      if (rx_first_ns != 0 && rx_done_ns >= rx_first_ns) {
        ctx->trace->add_span(obs::Stage::kRx, rx_first_ns,
                             rx_done_ns - rx_first_ns);
      }
      if (dequeue_ns != 0 && dequeue_ns >= rx_done_ns && rx_done_ns != 0) {
        ctx->trace->add_span(obs::Stage::kQueue, rx_done_ns,
                             dequeue_ns - rx_done_ns);
      }
    }
    Service* service = find_service(request.value().target.port.value());
    if (service == nullptr) {
      finish(ctx, Reply::error(ErrorCode::unreachable));
      return ctx;
    }
    // Once handle_async() is called, ctx->trace belongs to whichever thread
    // runs finish(); only this copy of the pointer is compared below.
    const obs::RequestTrace* const trace = ctx->trace.get();
    service->handle_async(request.value(), [ctx](Reply&& reply) {
      ctx->impl->finish(ctx, std::move(reply));
    });
    // If the service parked without detaching the trace (it should suspend
    // before releasing this thread), detach it here so this thread does
    // not carry a stale TLS pointer into the next request it dispatches. A
    // trace finished on this thread has already cleared the slot.
    if (obs::RequestTrace::current() == trace) {
      (void)obs::RequestTrace::suspend();
    }
    return ctx;
  }

  // Encode, cache, send, and release the request's dedup/ordering marks.
  // Runs on the dispatching thread (synchronous services) or on whatever
  // thread completes a parked request's disk I/O. The Reply may borrow
  // pinned cache bytes; the pin lives until `reply` is destroyed, after
  // encode() gathered them.
  void finish(const std::shared_ptr<RespondCtx>& ctx, Reply&& reply) {
    // A retry_later reply is a shed, not an answer: never cache it (the
    // retransmit should be re-admitted once load clears — nothing was
    // executed, so at-most-once is not at stake), and only put it on the
    // wire for overload-aware clients; everyone else degrades to their
    // timeout/backoff retransmit path via a silent drop.
    bool send_reply = true;
    bool cache_reply = true;
    if (reply.status == ErrorCode::retry_later) {
      cache_reply = false;
      if (ctx->pushback_ok) {
        if (reply.body.empty() && reply.segments.empty()) {
          Writer w(4);
          w.u32(std::max<std::uint32_t>(1, options.shed_retry_ms));
          reply.body = std::move(w).take();
        }
        io.shed_pushback.fetch_add(1, std::memory_order_relaxed);
      } else {
        send_reply = false;
        io.shed_dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (send_reply) {
      std::shared_ptr<const Bytes> encoded;
      {
        obs::ScopedSpan span(obs::Stage::kEncode);
        encoded = std::make_shared<const Bytes>(reply.encode());
      }
      // Cache before sending (and before the in-flight marks clear): a
      // retransmit arriving at any later instant finds either the in-flight
      // mark or the cached reply — never a gap that re-executes.
      if (cache_reply) replies.insert(ctx->peer, ctx->message_id, encoded);
      {
        obs::ScopedSpan span(obs::Stage::kTx);
        (void)send_message_batched(fd, ctx->from, ctx->message_id,
                                   ByteSpan(encoded->data(), encoded->size()));
      }
    }
    replies.release(ctx->peer, ctx->message_id);
    // Publish the trace (destructor clears this thread's TLS slot if the
    // trace is attached here — sync dispatch or a resumed continuation).
    ctx->trace.reset();
    // Second one through does the bookkeeping: if the dispatching thread
    // already saw completed == true it continued draining the client
    // itself; otherwise the client sat parked and is released here.
    if (ctx->completed.exchange(true, std::memory_order_acq_rel)) {
      unpark(*ctx);
    }
  }

  // Release a client whose head-of-queue request parked: drop the request
  // from the dedup set (its reply is cached now) and put the client back
  // on the ready list if more work queued up behind the parked request.
  // This runs on a disk-completion thread, which never runs service code
  // itself: if an execution slot is free, the threads that could claim the
  // client may all be asleep in the receive call, so a zero-length
  // datagram to the server's own port wakes one of them.
  void unpark(const RespondCtx& ctx) {
    bool ring = false;
    {
      std::lock_guard<std::mutex> lock(work_mu);
      ClientState& client = clients[ctx.peer];
      client.pending_ids.erase(ctx.message_id);
      if (!client.pending.empty() && running.load()) {
        ready.push_back(ctx.peer);
        ring = executing < slots;
      } else {
        client.scheduled = false;
      }
    }
    if (ring) {
      (void)::sendto(fd, nullptr, 0, 0, reinterpret_cast<const sockaddr*>(&self),
                     sizeof self);
    }
  }

  // True if `message_id` from `peer` is queued or executing right now.
  bool in_flight(std::uint64_t peer, std::uint64_t message_id) {
    std::lock_guard<std::mutex> lock(work_mu);
    const auto it = clients.find(peer);
    return it != clients.end() && it->second.pending_ids.count(message_id) > 0;
  }

  // Retry-after advised to a shed client: proportional to the observed
  // queue depth (a fuller queue sends clients away for longer), clamped to
  // [1, 10 * shed_retry_ms].
  std::uint32_t retry_after_ms(std::size_t depth) const {
    const std::uint64_t unit = std::max<std::uint32_t>(1, options.shed_retry_ms);
    const std::uint64_t denom = std::max<std::size_t>(1, options.max_queue);
    const std::uint64_t scaled = unit * depth / denom;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::max<std::uint64_t>(1, scaled), 10 * unit));
  }

  // Dedup, admission, enqueue, then serve. A retransmit of a request that
  // is queued or executing is dropped; one whose reply is cached is
  // answered from the cache. Both checks run under work_mu: with several
  // receiving threads, two unlocked probes can both miss, because the
  // first copy may cache its reply and retire its id between them.
  // finish() caches before the id is retired under work_mu, so one of the
  // two checks here always sees it.
  //
  // A request over the total or per-client queue bound (pool mode only) is
  // shed in O(1): a BS_PUSHBACK reply for overload-aware clients (16-byte
  // trailer), a silent drop for the rest.
  void enqueue(const sockaddr_in& from, std::uint64_t peer,
               std::uint64_t message_id, Bytes wire,
               std::uint64_t rx_first_ns, std::uint64_t rx_done_ns,
               std::uint64_t deadline_ns, bool pushback_ok) {
    std::shared_ptr<const Bytes> answered;
    std::uint32_t advise_ms = 0;
    {
      std::unique_lock<std::mutex> lock(work_mu);
      ClientState& client = clients[peer];
      if (client.pending_ids.count(message_id) > 0) {
        duplicates.fetch_add(1);
        return;
      }
      answered = replies.find(peer, message_id);
      if (answered == nullptr) {
        const bool bounded = options.workers > 0;
        const bool over_total = bounded && options.max_queue > 0 &&
                                total_pending >= options.max_queue;
        const bool over_client =
            bounded && options.max_client_queue > 0 &&
            client.pending.size() >= options.max_client_queue;
        if (!over_total && !over_client) {
          client.pending_ids.insert(message_id);
          client.pending.push_back(WorkItem{from, message_id, std::move(wire),
                                            rx_first_ns, rx_done_ns,
                                            deadline_ns});
          ++total_pending;
          std::uint64_t depth_max =
              io.rx_queue_depth_max.load(std::memory_order_relaxed);
          while (depth_max < total_pending &&
                 !io.rx_queue_depth_max.compare_exchange_weak(
                     depth_max, total_pending, std::memory_order_relaxed)) {
          }
          if (!client.scheduled) {
            client.scheduled = true;
            ready.push_back(peer);
          }
          serve(lock);
          return;
        }
        advise_ms = retry_after_ms(total_pending);
      }
    }
    if (answered != nullptr) {
      duplicates.fetch_add(1);
      (void)send_message_batched(fd, from, message_id,
                                 ByteSpan(answered->data(), answered->size()));
    } else if (pushback_ok) {
      io.shed_pushback.fetch_add(1, std::memory_order_relaxed);
      const Bytes pushback = make_pushback_wire(advise_ms);
      (void)send_message_batched(fd, from, message_id,
                                 ByteSpan(pushback.data(), pushback.size()));
    } else {
      io.shed_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Claim ready clients and run their queues while an execution slot is
  // free. Called with work_mu held; returns with it held.
  void serve(std::unique_lock<std::mutex>& lock) {
    while (!ready.empty() && executing < slots && running.load()) {
      const std::uint64_t peer = ready.front();
      ready.pop_front();
      ++executing;
      io.worker_wakeups.fetch_add(1, std::memory_order_relaxed);
      run_client(lock, clients[peer], peer);
      --executing;
    }
  }

  void run_client(std::unique_lock<std::mutex>& lock, ClientState& client,
                  std::uint64_t peer) {
    while (!client.pending.empty()) {
      WorkItem item = std::move(client.pending.front());
      client.pending.pop_front();
      if (total_pending > 0) --total_pending;
      // Deadline check at dequeue: a request whose budget ran out while
      // it sat queued is dead work — its client has already timed out or
      // moved on, so drop it in O(1) instead of dispatching. No reply is
      // sent and nothing is cached: a retransmit (with a fresh remaining
      // budget) is admitted as a new attempt.
      if (item.deadline_ns != 0 && obs::now_ns() > item.deadline_ns) {
        io.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        client.pending_ids.erase(item.message_id);
        continue;
      }
      lock.unlock();
      const std::uint64_t dequeue_ns =
          item.rx_done_ns != 0 ? obs::now_ns() : 0;
      auto ctx = execute(item.from, peer, item.message_id, item.wire,
                         item.rx_first_ns, item.rx_done_ns, dequeue_ns);
      const bool finished =
          ctx->completed.exchange(true, std::memory_order_acq_rel);
      lock.lock();
      if (!finished) {
        // The request parked on async I/O. Leave the client owned
        // (scheduled stays true, pending_id stays set) so later requests
        // from this endpoint cannot overtake the deferred reply; this
        // thread moves on and finish() releases the client once the reply
        // is on the wire.
        return;
      }
      client.pending_ids.erase(item.message_id);
      if (!running.load()) return;
    }
    client.scheduled = false;
  }

  void handle_datagram(const sockaddr_in& from, ByteSpan datagram) {
    if (options.drop_one_in > 0) {
      std::lock_guard<std::mutex> lock(rx_mu);
      if (loss_rng.next_below(options.drop_one_in) == 0) {
        dropped.fetch_add(1);
        return;
      }
    }
    auto fragment = parse_fragment(datagram);
    if (!fragment.ok()) return;
    const FragmentView& f = fragment.value();
    const std::uint64_t peer = peer_key(from);
    const std::uint64_t message_id = f.message_id;

    std::uint64_t rx_first_ns = 0;
    Bytes wire;
    if (f.count == 1) {
      // One datagram, one request: enqueue() does all the dedup.
      if (obs::tracing_enabled()) rx_first_ns = obs::now_ns();
      wire.assign(f.payload.begin(), f.payload.end());
    } else {
      // Probe before reassembling, so a retransmitted burst of fragments
      // is not assembled again. Retransmit of something already answered?
      if (const auto hit = replies.find(peer, message_id); hit != nullptr) {
        duplicates.fetch_add(1);
        (void)send_message_batched(fd, from, message_id,
                                   ByteSpan(hit->data(), hit->size()));
        return;
      }
      // Of something queued or executing (including parked on async I/O)?
      // The reply is on its way; answering again would double-execute.
      if (in_flight(peer, message_id)) {
        duplicates.fetch_add(1);
        return;
      }
      const auto key = std::make_pair(peer, message_id);
      std::lock_guard<std::mutex> lock(rx_mu);
      Assembly& assembly = assembling[key];
      if (assembly.count == 0 && obs::tracing_enabled()) {
        assembly.first_ns = obs::now_ns();
      }
      if (!assembly.add(f)) return;
      rx_first_ns = assembly.first_ns;
      wire = assembly.take();
      assembling.erase(key);
    }
    const std::uint64_t rx_done_ns = rx_first_ns != 0 ? obs::now_ns() : 0;
    const TrailerPeek peek = peek_trailer(ByteSpan(wire));
    const std::uint64_t deadline_ns =
        peek.deadline_us != 0 ? obs::now_ns() + peek.deadline_us * 1000 : 0;
    enqueue(from, peer, message_id, std::move(wire), rx_first_ns, rx_done_ns,
            deadline_ns, peek.deadline_capable);
  }

  // The body of every server thread: receive one datagram, and if it
  // completes a request, admit it and run it here (serve()). A thread
  // that finishes a client drains `ready` before it receives again. With
  // `slots` = workers and workers + 1 threads, at most `workers` requests
  // execute at once and one thread is always receiving, so overload is
  // shed on arrival. One datagram per call: a thread that took a batch
  // would run several clients' requests back to back while its peers
  // slept. A zero-length datagram is unpark()'s doorbell: nothing to
  // parse, just serve. A receive timeout serves too, so a lost doorbell
  // delays a released client by one timeout at most.
  void serve_loop() {
    std::vector<std::uint8_t> buffer(kFragmentPayload + kFragHeader + 64);
    while (running.load()) {
      sockaddr_in from{};
      iovec iov{buffer.data(), buffer.size()};
      mmsghdr msg{};
      msg.msg_hdr.msg_name = &from;
      msg.msg_hdr.msg_namelen = sizeof from;
      msg.msg_hdr.msg_iov = &iov;
      msg.msg_hdr.msg_iovlen = 1;
      // recvmmsg with one slot rather than recvfrom: ThreadSanitizer models
      // a socket send → recvmmsg as synchronization, recvfrom not.
      const int n = ::recvmmsg(fd, &msg, 1, 0, nullptr);
      if (n == 1 && msg.msg_len > 0) {
        io.rx_batches.fetch_add(1, std::memory_order_relaxed);
        handle_datagram(from, ByteSpan(buffer.data(), msg.msg_len));
        continue;
      }
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        BULLET_LOG(warn, kLog) << "recvmmsg: " << std::strerror(errno);
      }
      std::unique_lock<std::mutex> lock(work_mu);
      serve(lock);
    }
  }
};

UdpServer::UdpServer(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<UdpServer>> UdpServer::start(UdpServerOptions options) {
  auto impl = std::make_shared<Impl>();
  impl->options = options;
  impl->replies.set_bounds(std::max<std::size_t>(1, options.reply_cache_entries),
                           std::max<std::uint64_t>(1, options.reply_cache_bytes));
  impl->loss_rng.reseed(options.loss_seed);
  BULLET_ASSIGN_OR_RETURN(impl->fd,
                          make_socket(options.udp_port, /*timeout_ms=*/50));
  const std::uint16_t port = bound_port(impl->fd);
  impl->self = loopback(port);
  impl->slots = std::max(1u, options.workers);
  impl->running.store(true);
  const unsigned threads = options.workers == 0 ? 1 : options.workers + 1;
  impl->threads.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    impl->threads.emplace_back([raw = impl.get()] { raw->serve_loop(); });
  }
  auto server = std::unique_ptr<UdpServer>(new UdpServer(std::move(impl)));
  server->udp_port_ = port;
  return server;
}

UdpServer::~UdpServer() { stop(); }

void UdpServer::stop() {
  if (impl_ && impl_->running.exchange(false)) {
    for (std::thread& thread : impl_->threads) thread.join();
  }
}

Status UdpServer::register_service(Service* service) {
  if (service == nullptr) return Error(ErrorCode::bad_argument, "null service");
  const std::uint64_t port = service->public_port().value();
  if (port == 0) return Error(ErrorCode::bad_argument, "null port");
  std::lock_guard<std::mutex> lock(impl_->services_mu);
  const auto [it, inserted] = impl_->services.emplace(port, service);
  (void)it;
  if (!inserted) {
    return Error(ErrorCode::already_exists, "port already registered");
  }
  return Status::success();
}

std::uint64_t UdpServer::dropped() const noexcept {
  return impl_->dropped.load();
}

std::uint64_t UdpServer::duplicates_suppressed() const noexcept {
  return impl_->duplicates.load();
}

const IoCounters& UdpServer::io_counters() const noexcept {
  return impl_->io;
}

// --- client ------------------------------------------------------------------

struct UdpTransport::Impl {
  int fd = -1;
  UdpClientOptions options;
  sockaddr_in server{};
  std::uint64_t next_message_id = 1;
  int recv_timeout_ms = 0;  // SO_RCVTIMEO now set on fd (0 = none)
  std::vector<std::uint8_t> buffer =
      std::vector<std::uint8_t>(kFragmentPayload + kFragHeader + 64);

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  Status set_timeout(int timeout_ms) {
    if (timeout_ms == recv_timeout_ms) return Status::success();
    BULLET_RETURN_IF_ERROR(set_recv_timeout(fd, timeout_ms));
    recv_timeout_ms = timeout_ms;
    return Status::success();
  }

  // Wait for a complete reply to `message_id`; nullopt on timeout.
  Result<Bytes> await_reply(std::uint64_t message_id, bool* timed_out) {
    *timed_out = false;
    Assembly assembly;
    for (;;) {
      const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          *timed_out = true;
          return Bytes{};
        }
        return errno_error("recv");
      }
      auto fragment = parse_fragment(
          ByteSpan(buffer.data(), static_cast<std::size_t>(n)));
      if (!fragment.ok()) continue;
      if (fragment.value().message_id != message_id) continue;  // stale
      if (assembly.add(fragment.value())) return assembly.take();
    }
  }
};

UdpTransport::UdpTransport(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

UdpTransport::~UdpTransport() = default;

Result<std::unique_ptr<UdpTransport>> UdpTransport::connect(
    UdpClientOptions options) {
  if (options.server_udp_port == 0) {
    return Error(ErrorCode::bad_argument, "server port required");
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->server = loopback(options.server_udp_port);
  BULLET_ASSIGN_OR_RETURN(impl->fd, make_socket(0, options.timeout_ms));
  impl->recv_timeout_ms = std::max(0, options.timeout_ms);
  return std::unique_ptr<UdpTransport>(new UdpTransport(std::move(impl)));
}

int backoff_timeout_ms(const UdpClientOptions& options, int attempt) {
  const std::int64_t base = std::max(1, options.timeout_ms);
  const std::int64_t cap = std::max<std::int64_t>(base, options.max_timeout_ms);
  // Cap the shift so the doubling cannot overflow; the cap clamps anyway.
  const int shift = std::min(std::max(attempt, 0), 20);
  const std::int64_t nominal = std::min(cap, base << shift);
  // Deterministic jitter, uniform in [0.75 * nominal, 1.25 * nominal]:
  // desynchronizes clients that share a timeout configuration without
  // giving up reproducibility (same seed, same schedule).
  Rng rng(options.backoff_seed * 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(attempt) + 1);
  const std::int64_t spread = nominal / 2;
  const std::int64_t jittered =
      nominal - nominal / 4 +
      static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(spread) + 1));
  return static_cast<int>(std::min(cap, std::max<std::int64_t>(1, jittered)));
}

Result<Reply> UdpTransport::call(const Request& request) {
  const std::uint64_t message_id = impl_->next_message_id++;
  Bytes wire = request.encode();
  // With a deadline, the trailer's last 8 bytes are the remaining budget;
  // each attempt re-stamps them in place (the rest of the wire is
  // identical), so the server always sees how much time this call has
  // left, not the original budget.
  const bool has_deadline = request.deadline_us != 0;
  const auto start = std::chrono::steady_clock::now();
  bool last_was_pushback = false;
  for (int attempt = 0; attempt < impl_->options.max_attempts; ++attempt) {
    std::int64_t remaining_us = 0;
    if (has_deadline) {
      const auto elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      remaining_us = static_cast<std::int64_t>(request.deadline_us) - elapsed_us;
      if (remaining_us <= 0) {
        return Error(ErrorCode::deadline_expired, "call budget exhausted");
      }
      store_le_u64(wire.data() + wire.size() - 8,
                   static_cast<std::uint64_t>(remaining_us));
    }
    if (attempt > 0) ++retransmissions_;
    int timeout_ms = backoff_timeout_ms(impl_->options, attempt);
    if (has_deadline) {
      timeout_ms = static_cast<int>(std::min<std::int64_t>(
          timeout_ms, std::max<std::int64_t>(1, remaining_us / 1000)));
    }
    BULLET_RETURN_IF_ERROR(impl_->set_timeout(timeout_ms));
    BULLET_RETURN_IF_ERROR(
        send_message(impl_->fd, impl_->server, message_id, wire));
    bool timed_out = false;
    BULLET_ASSIGN_OR_RETURN(Bytes reply_wire,
                            impl_->await_reply(message_id, &timed_out));
    if (timed_out) {
      last_was_pushback = false;
      continue;
    }
    BULLET_ASSIGN_OR_RETURN(Reply reply, Reply::decode(reply_wire));
    if (reply.status != ErrorCode::retry_later) return reply;
    last_was_pushback = true;
    // BS_PUSHBACK: the server shed this request without executing it and
    // advised when to come back. Sleep that long (overriding the backoff
    // schedule — the server knows its queue better than our timer does)
    // and resend; the same message id is reused, which is safe because
    // nothing was executed or cached, and keeps the dedup guarantees if a
    // stale earlier copy is still in flight.
    ++pushbacks_;
    std::int64_t sleep_ms =
        pushback_retry_after_ms(reply, backoff_timeout_ms(impl_->options,
                                                          attempt));
    if (has_deadline) {
      const auto elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const std::int64_t left_ms =
          (static_cast<std::int64_t>(request.deadline_us) - elapsed_us) / 1000;
      sleep_ms = std::min(sleep_ms, std::max<std::int64_t>(0, left_ms));
    }
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  if (last_was_pushback) {
    return Error(ErrorCode::retry_later, "server overloaded after retries");
  }
  return Error(ErrorCode::unreachable, "no reply after retries");
}

}  // namespace bullet::rpc
