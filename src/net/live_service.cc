#include "net/live_service.h"

#include <chrono>
#include <ctime>
#include <optional>
#include <string_view>
#include <utility>

#include "net/live_protocol.h"
#include "util/md5.h"

namespace mcloud::net {

namespace {

/// Live records carry the wall clock at 1 s resolution, like the dataset.
[[nodiscard]] UnixSeconds WallNow() {
  return static_cast<UnixSeconds>(std::time(nullptr));
}

[[nodiscard]] HttpResponse Json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.headers.emplace_back("Content-Type", "application/json");
  r.body = std::move(body);
  return r;
}

}  // namespace

LiveService::LiveService(const LiveServiceConfig& config)
    : config_(config),
      chunker_(config.chunk_size),
      metadata_(config.front_ends) {
  front_ends_.reserve(config.front_ends);
  for (std::uint32_t i = 0; i < config.front_ends; ++i) {
    front_ends_.emplace_back(i, cloud::ServerBehavior{});
  }
}

bool LiveService::BaseRecord(const HttpRequest& req, LogRecord& base) {
  const std::string* user = req.Header(kHdrUser);
  const std::string* device = req.Header(kHdrDevice);
  if (user == nullptr || device == nullptr) return false;
  base.user_id = req.HeaderU64(kHdrUser, 0);
  base.device_id = req.HeaderU64(kHdrDevice, 0);
  base.device_type = DeviceType::kAndroid;
  if (const std::string* t = req.Header(kHdrDeviceType); t != nullptr) {
    if (*t == "ios") {
      base.device_type = DeviceType::kIos;
    } else if (*t == "pc") {
      base.device_type = DeviceType::kPc;
    } else if (*t != "android") {
      return false;
    }
  }
  return true;
}

HttpResponse LiveService::BadRequest(std::string why) {
  ++counters_.bad_requests;
  why.append("\n");
  HttpResponse r;
  r.status = 400;
  r.headers.emplace_back("Content-Type", "text/plain");
  r.body = std::move(why);
  return r;
}

HttpResponse LiveService::Handle(const HttpRequest& req,
                                 const RequestContext& ctx) {
  counters_.bytes_in += req.body.size();
  if (req.method == "POST" && req.target == "/fileop") {
    return HandleFileOp(req, ctx);
  }
  if (req.method == "PUT" && req.target == "/chunk") {
    return HandleChunkPut(req, ctx);
  }
  constexpr std::string_view kChunkPrefix = "/chunk/";
  if (req.method == "GET" && req.target.size() > kChunkPrefix.size() &&
      std::string_view(req.target).substr(0, kChunkPrefix.size()) ==
          kChunkPrefix) {
    return HandleChunkGet(req, ctx,
                          std::string_view(req.target)
                              .substr(kChunkPrefix.size()));
  }
  if (req.method == "GET" && req.target == "/stats") {
    return Json(200, StatsJson());
  }
  if (req.method == "GET" && req.target == "/healthz") {
    HttpResponse r;
    r.headers.emplace_back("Content-Type", "text/plain");
    r.body = "ok\n";
    return r;
  }
  HttpResponse r;
  r.status = 404;
  r.headers.emplace_back("Content-Type", "text/plain");
  r.body = "unknown route\n";
  return r;
}

HttpResponse LiveService::HandleFileOp(const HttpRequest& req,
                                       const RequestContext& ctx) {
  LogRecord base;
  if (!BaseRecord(req, base)) return BadRequest("missing user/device");
  const std::string* dir = req.Header(kHdrDirection);
  if (dir == nullptr || (*dir != "store" && *dir != "retrieve")) {
    return BadRequest("direction must be store|retrieve");
  }
  const std::uint64_t seed = req.HeaderU64(kHdrContentSeed, 0);
  const Bytes size = req.HeaderU64(kHdrBytes, 0);
  if (size == 0) return BadRequest("missing file size");

  ++counters_.fileops;
  const cloud::FileManifest manifest = chunker_.Manifest(seed, size);
  std::string body;
  cloud::FrontEndId fe = 0;
  if (*dir == "store") {
    const cloud::StoreDecision d = metadata_.QueryStore(base.user_id, manifest);
    if (d.already_stored) ++counters_.file_dedup_hits;
    fe = d.front_end;
    body = std::string("{\"already_stored\":") +
           (d.already_stored ? "true" : "false") +
           ",\"front_end\":" + std::to_string(fe) +
           ",\"chunks\":" + std::to_string(manifest.chunks.size()) + "}";
    front_ends_[fe].LogFileOperation(base, WallNow(), Direction::kStore,
                                     /*tsrv=*/0, ctx.rtt, log_);
  } else {
    const std::optional<cloud::FrontEndId> home =
        metadata_.QueryRetrieve(base.user_id, manifest.file_md5);
    const bool found = home.has_value();
    if (!found) ++counters_.retrieve_misses;
    fe = home.value_or(static_cast<cloud::FrontEndId>(
        manifest.file_md5.Low64() % config_.front_ends));
    body = std::string("{\"found\":") + (found ? "true" : "false") +
           ",\"front_end\":" + std::to_string(fe) +
           ",\"chunks\":" + std::to_string(manifest.chunks.size()) + "}";
    front_ends_[fe].LogFileOperation(base, WallNow(), Direction::kRetrieve,
                                     /*tsrv=*/0, ctx.rtt, log_);
  }
  return Json(200, std::move(body));
}

HttpResponse LiveService::HandleChunkPut(const HttpRequest& req,
                                         const RequestContext& ctx) {
  LogRecord base;
  if (!BaseRecord(req, base)) return BadRequest("missing user/device");
  if (req.body.empty()) return BadRequest("empty chunk body");

  ++counters_.chunk_puts;
  cloud::ChunkInfo chunk;
  chunk.index = static_cast<std::uint32_t>(req.HeaderU64(kHdrChunkIndex, 0));
  chunk.size = req.body.size();
  chunk.md5 = Md5::Hash(req.body);
  const auto fe = static_cast<cloud::FrontEndId>(
      req.HeaderU64(kHdrFrontEnd, chunk.md5.Low64() % config_.front_ends));
  if (fe >= config_.front_ends) return BadRequest("front_end out of range");

  // The request body *is* the transfer: T_chunk for an upload is dominated
  // by receiving it, and the handler runs at parse-complete time.
  const bool dedup = front_ends_[fe].CommitChunkStore(
      base, WallNow(), chunk, /*ttran=*/ctx.recv_seconds, /*tsrv=*/0, ctx.rtt,
      log_);
  if (dedup) ++counters_.dedup_hits;
  chunk_home_.emplace(chunk.md5, fe);
  if (!dedup && stored_body_bytes_ + chunk.size <=
                    config_.max_stored_body_bytes) {
    if (bodies_.emplace(chunk.md5, req.body).second) {
      stored_body_bytes_ += chunk.size;
    }
  }

  // Appends to one string: GCC 12 misreads the equivalent operator+ chains
  // as an overlapping memcpy (-Wrestrict).
  std::string body = "{\"dedup\":";
  body += dedup ? "true" : "false";
  body += ",\"front_end\":";
  body += std::to_string(fe);
  body += '}';
  HttpResponse r = Json(200, std::move(body));
  r.headers.emplace_back(std::string(kHdrSource), dedup ? "index" : "stored");
  std::string etag = "\"";
  etag += chunk.md5.ToHex();
  etag += '"';
  r.headers.emplace_back("ETag", std::move(etag));
  return r;
}

HttpResponse LiveService::HandleChunkGet(const HttpRequest& req,
                                         const RequestContext& ctx,
                                         std::string_view hex_md5) {
  LogRecord base;
  if (!BaseRecord(req, base)) return BadRequest("missing user/device");
  Md5Digest md5;
  if (!ParseHexMd5(hex_md5, md5)) return BadRequest("malformed chunk md5");

  ++counters_.chunk_gets;
  cloud::ChunkInfo chunk;
  chunk.index = static_cast<std::uint32_t>(req.HeaderU64(kHdrChunkIndex, 0));
  chunk.md5 = md5;

  HttpResponse r;
  r.chunked = true;
  const auto body_it = bodies_.find(md5);
  const bool from_index = body_it != bodies_.end();
  if (from_index) {
    r.body = body_it->second;
  } else {
    ++counters_.replica_serves;
    const Bytes size = req.HeaderU64(kHdrBytes, config_.chunk_size);
    FillReplicaBody(md5, size, r.body);
  }
  chunk.size = r.body.size();
  const auto home_it = chunk_home_.find(md5);
  const auto fe = home_it != chunk_home_.end()
                      ? home_it->second
                      : static_cast<cloud::FrontEndId>(
                            md5.Low64() % config_.front_ends);
  r.headers.emplace_back("Content-Type", "application/octet-stream");
  r.headers.emplace_back(std::string(kHdrSource),
                         from_index ? "index" : "replica");
  counters_.bytes_out += r.body.size();

  // T_chunk on a retrieval spans to the *last byte out*: defer the record to
  // the server's flush hook. `this` outlives the server loop that fires it.
  const auto first_byte_at = ctx.first_byte_at;
  const Seconds rtt = ctx.rtt;
  r.on_flushed = [this, base, chunk, fe, first_byte_at, rtt]() {
    const Seconds ttran =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      first_byte_at)
            .count();
    (void)front_ends_[fe].ServeChunkRetrieve(base, WallNow(), chunk, ttran,
                                             /*tsrv=*/0, rtt, log_);
  };
  return r;
}

std::string LiveService::StatsJson() const {
  const cloud::MetadataStats& md = metadata_.stats();
  std::string s = "{";
  auto field = [&s](std::string_view key, std::uint64_t value, bool last) {
    s.append("\"").append(key).append("\":").append(std::to_string(value));
    if (!last) s.append(",");
  };
  field("fileops", counters_.fileops, false);
  field("chunk_puts", counters_.chunk_puts, false);
  field("chunk_gets", counters_.chunk_gets, false);
  field("dedup_hits", counters_.dedup_hits, false);
  field("file_dedup_hits", counters_.file_dedup_hits, false);
  field("retrieve_misses", counters_.retrieve_misses, false);
  field("replica_serves", counters_.replica_serves, false);
  field("bad_requests", counters_.bad_requests, false);
  field("bytes_in", counters_.bytes_in, false);
  field("bytes_out", counters_.bytes_out, false);
  field("log_records", log_.size(), false);
  field("distinct_files", metadata_.DistinctFiles(), false);
  field("metadata_store_queries", md.store_queries, false);
  field("metadata_dedup_hits", md.dedup_hits, true);
  s.append("}");
  return s;
}

}  // namespace mcloud::net
