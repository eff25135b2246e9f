#include "analysis/availability.h"

#include <sstream>
#include <vector>

#include "util/summary.h"

namespace mcloud::analysis {

AvailabilityReport Availability(const cloud::ServiceResult& result) {
  const cloud::FaultStats& f = result.faults;
  AvailabilityReport r;

  r.sessions = f.sessions;
  r.failed_sessions = f.failed_sessions;
  r.session_success_rate =
      f.sessions > 0 ? 1.0 - static_cast<double>(f.failed_sessions) /
                                 static_cast<double>(f.sessions)
                     : 1.0;
  r.ops = f.ops;
  r.failed_ops = f.failed_ops;
  r.op_success_rate =
      f.ops > 0 ? 1.0 - static_cast<double>(f.failed_ops) /
                            static_cast<double>(f.ops)
                : 1.0;

  // On a fault-free run the service does not track goodput explicitly —
  // every chunk delivered is goodput, so reconstruct it from the samples.
  r.goodput_bytes = f.goodput_bytes;
  if (f.goodput_bytes == 0 && f.wasted_bytes == 0)
    for (const cloud::ChunkPerf& p : result.chunk_perf)
      r.goodput_bytes += p.bytes;
  r.wasted_bytes = f.wasted_bytes;
  r.offered_bytes = r.goodput_bytes + r.wasted_bytes;
  r.goodput_fraction =
      r.offered_bytes > 0 ? static_cast<double>(r.goodput_bytes) /
                                static_cast<double>(r.offered_bytes)
                          : 1.0;

  r.chunks_delivered = result.chunk_perf.size();
  r.chunk_attempts =
      f.chunk_attempts > 0 ? f.chunk_attempts : r.chunks_delivered;
  r.retry_amplification =
      r.chunks_delivered > 0 ? static_cast<double>(r.chunk_attempts) /
                                   static_cast<double>(r.chunks_delivered)
                             : 1.0;
  r.retries = f.retries;
  r.failovers = f.failovers;
  r.hedges_issued = f.hedges_issued;
  r.hedge_wins = f.hedge_wins;
  r.resume_skipped_chunks = f.resume_skipped_chunks;

  std::vector<double> ttran;
  ttran.reserve(result.chunk_perf.size());
  for (const cloud::ChunkPerf& p : result.chunk_perf) ttran.push_back(p.ttran);
  if (!ttran.empty()) {
    const double cuts[2] = {50.0, 99.0};
    const std::vector<double> q = Percentiles(ttran, cuts);
    r.chunk_ttran_p50 = q[0];
    r.chunk_ttran_p99 = q[1];
  }
  return r;
}

std::vector<double> SuccessRateByDevice(const cloud::ServiceResult& result) {
  std::vector<std::uint64_t> total(3, 0), failed(3, 0);
  for (const cloud::SessionOutcome& s : result.session_outcomes) {
    const auto d = static_cast<std::size_t>(s.device);
    if (d >= total.size()) continue;
    ++total[d];
    if (!s.Success()) ++failed[d];
  }
  std::vector<double> rates(3, 1.0);
  for (std::size_t d = 0; d < rates.size(); ++d)
    if (total[d] > 0)
      rates[d] = 1.0 - static_cast<double>(failed[d]) /
                           static_cast<double>(total[d]);
  return rates;
}

std::string RenderAvailability(const AvailabilityReport& r) {
  std::ostringstream os;
  os << "availability:\n"
     << "  sessions            " << r.sessions << " (" << r.failed_sessions
     << " failed, success rate " << r.session_success_rate << ")\n"
     << "  operations          " << r.ops << " (" << r.failed_ops
     << " failed, success rate " << r.op_success_rate << ")\n"
     << "  goodput             " << ToMB(r.goodput_bytes) << " MB of "
     << ToMB(r.offered_bytes) << " MB offered (fraction "
     << r.goodput_fraction << ", " << ToMB(r.wasted_bytes) << " MB wasted)\n"
     << "  retry amplification " << r.retry_amplification << " ("
     << r.chunk_attempts << " attempts / " << r.chunks_delivered
     << " delivered, " << r.retries << " retry rounds)\n"
     << "  failovers           " << r.failovers << ", hedges "
     << r.hedges_issued << " (" << r.hedge_wins << " wins), resume skipped "
     << r.resume_skipped_chunks << " chunks\n"
     << "  chunk t_tran        p50 " << r.chunk_ttran_p50 << " s, p99 "
     << r.chunk_ttran_p99 << " s\n";
  return os.str();
}

}  // namespace mcloud::analysis
