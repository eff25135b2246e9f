#include "analysis/session_stats.h"

#include <algorithm>
#include <array>
#include <span>

#include "util/summary.h"
#include "util/units.h"

namespace mcloud::analysis {

SessionTypeSplit ClassifySessions(std::span<const Session> sessions) {
  SessionTypeSplit split;
  split.total = sessions.size();
  for (const Session& s : sessions) {
    switch (s.SessionType()) {
      case Session::Type::kStoreOnly:
        ++split.store_only;
        break;
      case Session::Type::kRetrieveOnly:
        ++split.retrieve_only;
        break;
      case Session::Type::kMixed:
        ++split.mixed;
        break;
    }
  }
  return split;
}

std::vector<SessionSizeBin> SessionSizeByOpCount(
    std::span<const Session> sessions, Session::Type type,
    std::size_t max_ops) {
  // The bin key is a small dense integer (1..max_ops), so a counting pass
  // plus one flat scatter buffer replaces the former std::map of vectors:
  // no node allocations, and each bin's volumes land contiguously.
  std::vector<std::size_t> counts(max_ops + 1, 0);
  for (const Session& s : sessions) {
    if (s.SessionType() != type) continue;
    const std::size_t ops = s.FileOps();
    if (ops == 0 || ops > max_ops) continue;
    ++counts[ops];
  }
  std::vector<std::size_t> offsets(max_ops + 2, 0);
  for (std::size_t ops = 1; ops <= max_ops; ++ops)
    offsets[ops + 1] = offsets[ops] + counts[ops];
  std::vector<double> volumes(offsets[max_ops + 1]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Session& s : sessions) {
    if (s.SessionType() != type) continue;
    const std::size_t ops = s.FileOps();
    if (ops == 0 || ops > max_ops) continue;
    volumes[cursor[ops]++] = ToMB(s.Volume());
  }

  std::vector<SessionSizeBin> out;
  const std::array<double, 3> cuts = {25.0, 50.0, 75.0};
  for (std::size_t ops = 1; ops <= max_ops; ++ops) {
    if (counts[ops] == 0) continue;
    const std::span<const double> vols(volumes.data() + offsets[ops],
                                       counts[ops]);
    SessionSizeBin bin;
    bin.file_ops = ops;
    bin.sessions = vols.size();
    double sum = 0;
    for (double v : vols) sum += v;
    bin.avg_mb = sum / static_cast<double>(vols.size());
    const auto pct = Percentiles(vols, cuts);
    bin.p25_mb = pct[0];
    bin.median_mb = pct[1];
    bin.p75_mb = pct[2];
    out.push_back(bin);
  }
  return out;
}

std::vector<double> AvgFileSizeSample(std::span<const Session> sessions,
                                      Session::Type type) {
  std::vector<double> out;
  for (const Session& s : sessions) {
    if (s.SessionType() != type) continue;
    if (s.FileOps() == 0 || s.Volume() == 0) continue;
    out.push_back(ToMB(s.Volume()) / static_cast<double>(s.FileOps()));
  }
  return out;
}

}  // namespace mcloud::analysis
