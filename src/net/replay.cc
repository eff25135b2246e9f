#include "net/replay.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "net/http.h"
#include "net/live_protocol.h"
#include "trace/log_io.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "util/error.h"
#include "util/parallel.h"

namespace mcloud::net {

namespace {

constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

/// Bounded ring of content references shared by the fallback paths.
template <typename T>
class RefRing {
 public:
  explicit RefRing(std::size_t cap) : cap_(cap) {}
  void Push(const T& v) {
    if (refs_.size() < cap_) {
      refs_.push_back(v);
    } else {
      refs_[pushes_ % cap_] = v;
    }
    ++pushes_;
  }
  [[nodiscard]] bool Empty() const { return refs_.empty(); }
  /// Deterministic round-robin pick.
  [[nodiscard]] const T& Pick() { return refs_[picks_++ % refs_.size()]; }

 private:
  std::size_t cap_;
  std::vector<T> refs_;
  std::uint64_t pushes_ = 0;
  std::uint64_t picks_ = 0;
};

struct FileRef {
  std::uint64_t seed = 0;
  Bytes bytes = 0;
};

struct ChunkRef {
  std::uint64_t seed = 0;
  std::uint32_t index = 0;
  Bytes bytes = 0;
};

struct UserState {
  bool group_open = false;
  std::size_t group_item = kNoItem;  ///< store-fileop item to patch
  std::uint64_t group_seed = 0;
  Bytes group_bytes = 0;
  std::uint32_t next_chunk = 0;
  RefRing<FileRef> files{64};
  RefRing<ChunkRef> chunks{256};
};

[[nodiscard]] Bytes CapBody(Bytes dv, Bytes cap) {
  Bytes b = dv == 0 ? 1 : dv;
  if (cap > 0) b = std::min(b, cap);
  return b;
}

}  // namespace

ReplayPlan BuildReplayPlan(std::span<const LogRecord> trace,
                           const ReplayPlanOptions& options) {
  ReplayPlan plan;
  if (trace.empty()) return plan;
  plan.items.reserve(trace.size());

  // Raw send offsets: whole-second trace timestamps, records within the
  // same second spread evenly across it so replay does not fire the whole
  // second as one burst.
  std::vector<double> raw(trace.size());
  const UnixSeconds t0 = trace.front().timestamp;
  for (std::size_t i = 0; i < trace.size();) {
    std::size_t j = i;
    while (j < trace.size() && trace[j].timestamp == trace[i].timestamp) ++j;
    const auto n = static_cast<double>(j - i);
    for (std::size_t k = i; k < j; ++k) {
      raw[k] = static_cast<double>(trace[i].timestamp - t0) +
               static_cast<double>(k - i) / n;
    }
    i = j;
  }
  const double span = std::max(raw.back(), 1e-6);
  const double scale =
      options.target_qps > 0
          ? (static_cast<double>(trace.size()) / options.target_qps) / span
          : 1.0;

  std::unordered_map<std::uint64_t, UserState> users;
  RefRing<FileRef> global_files{256};
  RefRing<ChunkRef> global_chunks{1024};
  std::uint64_t store_counter = 0;
  std::uint64_t unseen_counter = 0;
  const std::uint64_t unique_base = options.seed_base + 1'000'000;
  const std::uint64_t unseen_base = options.seed_base ^ 0x756e7365656eull;

  auto close_group = [&plan, &global_files](UserState& u) {
    if (!u.group_open) return;
    if (u.group_bytes == 0) u.group_bytes = 64 * kKiB;  // metadata-only store
    if (u.group_item != kNoItem) {
      plan.items[u.group_item].bytes = u.group_bytes;
    }
    const FileRef ref{u.group_seed, u.group_bytes};
    u.files.Push(ref);
    global_files.Push(ref);
    u.group_open = false;
    u.group_item = kNoItem;
    u.group_bytes = 0;
    u.next_chunk = 0;
  };
  auto open_group = [&](UserState& u, std::size_t item_index) {
    close_group(u);
    u.group_open = true;
    u.group_item = item_index;
    const bool popular =
        options.popular_every > 0 && options.popular_seeds > 0 &&
        (store_counter % options.popular_every) == options.popular_every - 1;
    u.group_seed = popular ? options.seed_base +
                                 (store_counter / options.popular_every) %
                                     options.popular_seeds
                           : unique_base + store_counter;
    ++store_counter;
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LogRecord& r = trace[i];
    UserState& u = users[r.user_id];
    PlanItem item;
    item.send_at = raw[i] * scale;
    item.user_id = r.user_id;
    item.device_id = r.device_id;
    item.device_type = r.device_type;

    if (r.request_type == RequestType::kFileOperation) {
      ++plan.fileops;
      if (r.direction == Direction::kStore) {
        item.kind = PlanKind::kFileOpStore;
        open_group(u, plan.items.size());
        item.content_seed = u.group_seed;
        item.bytes = 0;  // patched when the group closes
      } else {
        item.kind = PlanKind::kFileOpRetrieve;
        if (!u.files.Empty()) {
          const FileRef& ref = u.files.Pick();
          item.content_seed = ref.seed;
          item.bytes = ref.bytes;
        } else if (!global_files.Empty()) {
          const FileRef& ref = global_files.Pick();
          item.content_seed = ref.seed;
          item.bytes = ref.bytes;
        } else {
          item.content_seed = unseen_base + unseen_counter++;
          item.bytes = 64 * kKiB;
          item.expect_missing = true;
        }
      }
    } else if (r.direction == Direction::kStore) {
      item.kind = PlanKind::kChunkPut;
      ++plan.chunk_puts;
      if (!u.group_open) open_group(u, kNoItem);  // trace starts mid-stream
      item.content_seed = u.group_seed;
      item.chunk_index = u.next_chunk++;
      item.bytes = CapBody(r.data_volume, options.max_chunk_bytes);
      u.group_bytes += item.bytes;
      plan.put_bytes += item.bytes;
      const ChunkRef ref{item.content_seed, item.chunk_index, item.bytes};
      u.chunks.Push(ref);
      global_chunks.Push(ref);
    } else {
      item.kind = PlanKind::kChunkGet;
      ++plan.chunk_gets;
      if (!u.chunks.Empty()) {
        const ChunkRef& ref = u.chunks.Pick();
        item.content_seed = ref.seed;
        item.chunk_index = ref.index;
        item.bytes = ref.bytes;
      } else if (!global_chunks.Empty()) {
        const ChunkRef& ref = global_chunks.Pick();
        item.content_seed = ref.seed;
        item.chunk_index = ref.index;
        item.bytes = ref.bytes;
      } else {
        item.content_seed = unseen_base + unseen_counter++;
        item.chunk_index = 0;
        item.bytes = CapBody(r.data_volume, options.max_chunk_bytes);
        item.expect_missing = true;
      }
    }
    plan.items.push_back(item);
  }
  for (auto& [id, u] : users) close_group(u);
  plan.duration = plan.items.back().send_at;
  return plan;
}

// --- blocking loopback client --------------------------------------------

namespace {

class BlockingClient {
 public:
  ~BlockingClient() { Close(); }

  [[nodiscard]] bool Connected() const { return fd_ >= 0; }

  bool Connect(const std::string& host, std::uint16_t port,
               Seconds io_timeout) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(io_timeout);
    tv.tv_usec = static_cast<suseconds_t>(
        (io_timeout - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    parser_ = HttpResponseParser{};
    return true;
  }

  bool SendAll(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n =
          ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        Close();
        return false;
      }
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  bool RecvResponse(HttpResponseMsg& out) {
    char buf[64 * 1024];
    for (;;) {
      switch (parser_.Poll(out)) {
        case HttpResponseParser::Result::kResponse:
          return true;
        case HttpResponseParser::Result::kError:
          Close();
          return false;
        case HttpResponseParser::Result::kNeedMore:
          break;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        Close();
        return false;
      }
      parser_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  HttpResponseParser parser_;
};

struct WireRequest {
  std::string bytes;     ///< serialized request
  std::string expected;  ///< synthesized chunk body (GET verification)
  Md5Digest md5;         ///< chunk md5 (GET)
};

[[nodiscard]] WireRequest BuildWire(const PlanItem& item) {
  WireRequest w;
  HeaderList h;
  h.emplace_back(std::string(kHdrUser), std::to_string(item.user_id));
  h.emplace_back(std::string(kHdrDevice), std::to_string(item.device_id));
  h.emplace_back(std::string(kHdrDeviceType),
                 std::string(ToString(item.device_type)));
  switch (item.kind) {
    case PlanKind::kFileOpStore:
    case PlanKind::kFileOpRetrieve: {
      h.emplace_back(std::string(kHdrDirection),
                     item.kind == PlanKind::kFileOpStore ? "store"
                                                         : "retrieve");
      h.emplace_back(std::string(kHdrContentSeed),
                     std::to_string(item.content_seed));
      h.emplace_back(std::string(kHdrBytes), std::to_string(item.bytes));
      w.bytes = SerializeRequest("POST", "/fileop", h, "");
      break;
    }
    case PlanKind::kChunkPut: {
      h.emplace_back(std::string(kHdrChunkIndex),
                     std::to_string(item.chunk_index));
      std::string body;
      FillChunkBody(item.content_seed, item.chunk_index, item.bytes, body);
      w.md5 = Md5::Hash(body);
      w.bytes = SerializeRequest("PUT", "/chunk", h, body);
      break;
    }
    case PlanKind::kChunkGet: {
      h.emplace_back(std::string(kHdrChunkIndex),
                     std::to_string(item.chunk_index));
      h.emplace_back(std::string(kHdrBytes), std::to_string(item.bytes));
      FillChunkBody(item.content_seed, item.chunk_index, item.bytes,
                    w.expected);
      w.md5 = Md5::Hash(w.expected);
      w.bytes =
          SerializeRequest("GET", "/chunk/" + w.md5.ToHex(), h, "");
      break;
    }
  }
  return w;
}

}  // namespace

Seconds ReplayReport::LatencyQuantile(double q) const {
  return std::pow(10.0, latency_log10.ValueAtQuantile(q));
}

Seconds ReplayReport::ChunkLatencyQuantile(double q) const {
  return std::pow(10.0, chunk_latency_log10.ValueAtQuantile(q));
}

std::string ReplayReport::ToJson() const {
  std::string s = "{\n";
  auto u64 = [&s](std::string_view key, std::uint64_t v, bool last = false) {
    s.append("  \"").append(key).append("\": ").append(std::to_string(v));
    s.append(last ? "\n" : ",\n");
  };
  auto f64 = [&s](std::string_view key, double v, bool last = false) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    s.append("  \"").append(key).append("\": ").append(buf);
    s.append(last ? "\n" : ",\n");
  };
  u64("sent", sent);
  u64("ok", ok);
  u64("http_errors", http_errors);
  u64("transport_errors", transport_errors);
  u64("verify_failures", verify_failures);
  u64("dedup_hits", dedup_hits);
  u64("index_serves", index_serves);
  u64("replica_serves", replica_serves);
  u64("bytes_sent", bytes_sent);
  u64("bytes_received", bytes_received);
  f64("wall_seconds", wall_seconds);
  f64("achieved_qps", achieved_qps);
  for (const auto& [name, hist] :
       {std::pair<std::string_view, const Histogram*>{"latency", &latency_log10},
        {"chunk_latency", &chunk_latency_log10}}) {
    f64(std::string(name) + "_p50_s", std::pow(10.0, hist->ValueAtQuantile(0.50)));
    f64(std::string(name) + "_p90_s", std::pow(10.0, hist->ValueAtQuantile(0.90)));
    f64(std::string(name) + "_p99_s", std::pow(10.0, hist->ValueAtQuantile(0.99)));
    f64(std::string(name) + "_p999_s",
        std::pow(10.0, hist->ValueAtQuantile(0.999)));
    s.append("  \"").append(name).append("_log10_bins\": [");
    bool first = true;
    for (std::size_t i = 0; i < hist->bins(); ++i) {
      if (hist->Count(i) == 0) continue;
      if (!first) s.append(", ");
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "[%.4g, %llu]", hist->BinLeft(i),
                    static_cast<unsigned long long>(hist->Count(i)));
      s.append(buf);
    }
    s.append("],\n");
  }
  u64("schema", 1, true);
  s.append("}\n");
  return s;
}

ReplayReport ExecuteReplay(const ReplayPlan& plan,
                           const ReplayOptions& options) {
  ReplayReport report;
  if (plan.items.empty()) return report;

  {
    BlockingClient probe;
    MCLOUD_REQUIRE(probe.Connect(options.host, options.port,
                                 options.io_timeout),
                   "mcloudload: nothing listening on " + options.host + ":" +
                       std::to_string(options.port));
  }

  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, options.connections)),
      plan.items.size()));
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const auto start = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(20);

  auto run_worker = [&]() {
    BlockingClient client;
    ReplayReport local;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.items.size()) break;
      const PlanItem& item = plan.items[i];
      const auto deadline =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(item.send_at));
      std::this_thread::sleep_until(deadline);

      const WireRequest wire = BuildWire(item);
      if (!options.persistent) client.Close();
      if (!client.Connected() &&
          !client.Connect(options.host, options.port, options.io_timeout)) {
        ++local.sent;
        ++local.transport_errors;
        continue;
      }
      ++local.sent;
      local.bytes_sent += wire.bytes.size();
      HttpResponseMsg resp;
      if (!client.SendAll(wire.bytes) || !client.RecvResponse(resp)) {
        ++local.transport_errors;
        continue;
      }
      local.bytes_received += resp.body.size();
      const Seconds latency =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        deadline)
              .count();
      const double log_latency = std::log10(std::max(latency, 1e-9));
      local.latency_log10.Add(log_latency);
      const bool chunk_req = item.kind == PlanKind::kChunkPut ||
                             item.kind == PlanKind::kChunkGet;
      if (chunk_req) local.chunk_latency_log10.Add(log_latency);

      if (resp.status / 100 != 2) {
        ++local.http_errors;
        continue;
      }
      ++local.ok;
      if (item.kind == PlanKind::kChunkPut) {
        if (const std::string* src = resp.Header(kHdrSource);
            src != nullptr && *src == "index") {
          ++local.dedup_hits;
        }
      } else if (item.kind == PlanKind::kChunkGet) {
        const std::string* src = resp.Header(kHdrSource);
        const bool from_index = src != nullptr && *src == "index";
        if (from_index) {
          ++local.index_serves;
        } else {
          ++local.replica_serves;
        }
        if (options.verify) {
          bool good;
          if (from_index) {
            good = resp.body == wire.expected;
          } else {
            std::string replica;
            FillReplicaBody(wire.md5, resp.body.size(), replica);
            good = resp.body == replica;
          }
          if (!good) ++local.verify_failures;
        }
      }
    }
    client.Close();

    const std::scoped_lock lock(mu);
    report.sent += local.sent;
    report.ok += local.ok;
    report.http_errors += local.http_errors;
    report.transport_errors += local.transport_errors;
    report.verify_failures += local.verify_failures;
    report.dedup_hits += local.dedup_hits;
    report.index_serves += local.index_serves;
    report.replica_serves += local.replica_serves;
    report.bytes_sent += local.bytes_sent;
    report.bytes_received += local.bytes_received;
    for (const auto& [from, to] :
         {std::pair<const Histogram*, Histogram*>{&local.latency_log10,
                                                  &report.latency_log10},
          {&local.chunk_latency_log10, &report.chunk_latency_log10}}) {
      for (std::size_t b = 0; b < from->bins(); ++b) {
        if (from->Count(b) > 0) to->Add(from->BinCenter(b), from->Count(b));
      }
      if (from->Underflow() > 0) to->Add(from->lo() - 1.0, from->Underflow());
      if (from->Overflow() > 0) to->Add(from->hi() + 1.0, from->Overflow());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) threads.emplace_back(run_worker);
  for (std::thread& t : threads) t.join();

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.achieved_qps = report.wall_seconds > 0
                            ? static_cast<double>(report.sent) /
                                  report.wall_seconds
                            : 0;
  return report;
}

std::optional<std::string> LiveLogMatchesTrace(
    std::span<const LogRecord> trace, std::span<const LogRecord> live) {
  if (trace.size() != live.size()) {
    return "record count mismatch: trace has " +
           std::to_string(trace.size()) + ", live log has " +
           std::to_string(live.size());
  }
  using Key = std::tuple<std::uint64_t, int, int>;
  std::map<Key, std::int64_t> delta;
  for (const LogRecord& r : trace) {
    ++delta[{r.user_id, static_cast<int>(r.request_type),
             static_cast<int>(r.direction)}];
  }
  for (const LogRecord& r : live) {
    --delta[{r.user_id, static_cast<int>(r.request_type),
             static_cast<int>(r.direction)}];
  }
  for (const auto& [key, d] : delta) {
    if (d == 0) continue;
    const auto& [user, type, dir] = key;
    return "per-session mismatch for user " + std::to_string(user) +
           " (type=" + std::string(ToString(static_cast<RequestType>(type))) +
           ", dir=" + std::string(ToString(static_cast<Direction>(dir))) +
           "): " + std::to_string(d > 0 ? d : -d) +
           (d > 0 ? " missing from" : " extra in") + " live log";
  }
  return std::nullopt;
}

std::vector<LogRecord> LoadTraceForReplay(const std::filesystem::path& path) {
  if (!std::filesystem::is_directory(path)) return ReadTrace(path);
  // The groups in MANIFEST order, then one stable sort by the record time
  // order: a user's rows all sit in one group, in time order, so the sort
  // gives the resident row order.
  const PartitionedTrace pt = PartitionedTrace::Open(path);
  const std::span<const std::uint64_t> user_ids = pt.user_ids();
  RecordColumns cols;
  cols.reserve(pt.rows());
  const auto append = [](auto& column, auto values) {
    column.insert(column.end(), values.begin(), values.end());
  };
  for (std::size_t g = 0; g < pt.groups().size(); ++g) {
    pt.ReadGroup(g, std::size_t{1} << 20,
                 [&](std::int64_t, const TraceRowBlock& block) {
                   append(cols.timestamps, block.timestamps);
                   append(cols.device_types, block.device_types);
                   append(cols.device_ids, block.device_ids);
                   for (const std::uint32_t u : block.users)
                     cols.user_ids.push_back(user_ids[u]);
                   append(cols.request_types, block.request_types);
                   append(cols.directions, block.directions);
                   append(cols.data_volumes, block.data_volumes);
                 });
  }
  // The spill keeps only what analysis reads; the rest stays at defaults.
  cols.processing_times.resize(cols.size());
  cols.server_times.resize(cols.size());
  cols.avg_rtts.resize(cols.size());
  cols.proxied.resize(cols.size());
  RecordColumnsScratch scratch;
  ThreadPool pool;
  return cols.ToRecords(cols.TimeOrderPerm(scratch, pool));
}

}  // namespace mcloud::net
