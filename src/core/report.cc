#include "core/report.h"

#include <cstdio>
#include <cstring>

#include "model/paper_params.h"
#include "util/summary.h"

namespace mcloud::core {
namespace {

void Append(std::string& out, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

}  // namespace

std::string RenderFindings(const FullReport& r) {
  std::string out;
  out += "=== mcloud findings summary (paper vs measured) ===\n\n";

  Append(out, "[dataset]   records=%zu  mobile users=%zu  devices=%zu  "
              "android share=%.1f%% (paper %.1f%%)\n",
         r.records, r.mobile_users, r.mobile_devices,
         100 * r.android_access_share, 100 * paper::kAndroidShare);

  Append(out, "[workload]  peak hour-of-day=%d (paper %d)  "
              "retrieve/store volume=%.2f  stored/retrieved files=%.2f "
              "(paper ~%.1f)\n",
         r.timeseries.PeakHourOfDay(), paper::kPeakHourOfDay,
         r.timeseries.TotalStoreGb() > 0
             ? r.timeseries.TotalRetrieveGb() / r.timeseries.TotalStoreGb()
             : 0.0,
         r.timeseries.TotalRetrievedFiles() > 0
             ? static_cast<double>(r.timeseries.TotalStoredFiles()) /
                   static_cast<double>(r.timeseries.TotalRetrievedFiles())
             : 0.0,
         paper::kStoredToRetrievedFileCountRatio);

  Append(out, "[sessions]  intra gap mean=%.1fs (paper ~10s)  "
              "inter gap mean=%.2f days (paper ~1 day)  "
              "valley tau=%.0f min (paper 60 min)\n",
         r.interval_model.intra_mean_seconds,
         r.interval_model.inter_mean_seconds / kDay,
         r.interval_model.valley_tau / kMinute);

  Append(out, "[sessions]  store-only=%.1f%% (paper %.1f%%)  "
              "retrieve-only=%.1f%% (paper %.1f%%)  mixed=%.1f%% "
              "(paper ~%.1f%%)\n",
         100 * r.session_split.StoreShare(),
         100 * paper::kStoreOnlySessionShare,
         100 * r.session_split.RetrieveShare(),
         100 * paper::kRetrieveOnlySessionShare,
         100 * r.session_split.MixedShare(),
         100 * paper::kMixedSessionShare);

  for (const auto& g : r.burstiness) {
    Append(out, "[burstiness] sessions with >%zu ops: %.1f%% below "
                "normalized operating time 0.1 (paper >80%% for >1 op)\n",
           g.min_ops_exclusive,
           100 * analysis::FractionBelow(g, paper::kBurstyOperatingTimeBound));
  }

  const auto& store_mix =
      r.store_size_model.selection.fit.mixture.components();
  Append(out, "[file size] store-only mixture (n=%zu):", store_mix.size());
  for (const auto& c : store_mix)
    Append(out, "  a=%.2f u=%.1fMB", c.weight, c.mean);
  Append(out, "  (paper: 0.91/1.5, 0.07/13.1, 0.02/77.4)\n");
  const auto& ret_mix =
      r.retrieve_size_model.selection.fit.mixture.components();
  Append(out, "[file size] retrieve-only mixture (n=%zu):", ret_mix.size());
  for (const auto& c : ret_mix)
    Append(out, "  a=%.2f u=%.1fMB", c.weight, c.mean);
  Append(out, "  (paper: 0.46/1.6, 0.26/29.8, 0.28/146.8)\n");

  Append(out, "[usage]     mobile-only classes (occ/up/down/mixed): "
              "%.1f/%.1f/%.1f/%.1f%%  (paper %.1f/%.1f/%.1f/%.1f%%)\n",
         100 * r.mobile_only_column.user_share[0],
         100 * r.mobile_only_column.user_share[1],
         100 * r.mobile_only_column.user_share[2],
         100 * r.mobile_only_column.user_share[3],
         100 * paper::kMobileOccasionalShare,
         100 * paper::kMobileUploadOnlyShare,
         100 * paper::kMobileDownloadOnlyShare,
         100 * paper::kMobileMixedShare);

  for (const auto& e : r.engagement) {
    Append(out, "[engagement] %-14s day1 users=%zu  never returned=%.1f%%\n",
           std::string(analysis::ToString(e.group)).c_str(), e.day1_users,
           100 * e.never_returned);
  }
  for (const auto& rr : r.retrieval_returns) {
    Append(out,
           "[retrieval]  %-14s day1 uploaders=%zu  never retrieved=%.1f%% "
           "(paper: ~80%% for mobile-only)\n",
           std::string(analysis::ToString(rr.group)).c_str(),
           rr.day1_uploaders, 100 * rr.never_retrieved);
  }

  Append(out, "[activity]  store SE: c=%.2f a=%.3f R2=%.4f "
              "(paper c=%.2f a=%.3f R2=%.4f)  power-law R2=%.4f\n",
         r.store_activity.se.c, r.store_activity.se.a,
         r.store_activity.se.r_squared, paper::kStoreActivitySe.c,
         paper::kStoreActivitySe.a, paper::kStoreActivitySe.r2,
         r.store_activity.power_law.r_squared);
  Append(out, "[activity]  retrieve SE: c=%.2f a=%.3f R2=%.4f "
              "(paper c=%.2f a=%.3f R2=%.4f)  power-law R2=%.4f\n",
         r.retrieve_activity.se.c, r.retrieve_activity.se.a,
         r.retrieve_activity.se.r_squared, paper::kRetrieveActivitySe.c,
         paper::kRetrieveActivitySe.a, paper::kRetrieveActivitySe.r2,
         r.retrieve_activity.power_law.r_squared);

  out += "\nImplications (Table 4): write-dominated sessions; decouple "
         "metadata from data management; bundling has low value; delta "
         "encoding/compression unnecessary; defer uploads off-peak; "
         "cold-storage friendly; SE (not power-law) activity models.\n";
  return out;
}

namespace {

/// Incremental FNV-1a over 64-bit words; every scalar is widened to one
/// word (doubles by bit pattern) so the stream is unambiguous, and vector
/// lengths are hashed before their elements.
class Fnv {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U64(v ? 1 : 0); }
  void D(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Doubles(const std::vector<double>& v) {
    Size(v.size());
    for (const double x : v) D(x);
  }
  [[nodiscard]] std::uint64_t hash() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void HashMixtureExponential(Fnv& f, const MixtureExponentialFit& fit) {
  f.Size(fit.mixture.components().size());
  for (const auto& c : fit.mixture.components()) {
    f.D(c.weight);
    f.D(c.mean);
  }
  f.D(fit.log_likelihood);
  f.I64(fit.iterations);
  f.Bool(fit.converged);
}

void HashFileSizeModel(Fnv& f, const analysis::FileSizeModel& m) {
  HashMixtureExponential(f, m.selection.fit);
  f.Size(m.selection.selected_n);
  f.D(m.selection.rejected_weight);
  f.D(m.chi_square.statistic);
  f.D(m.chi_square.dof);
  f.D(m.chi_square.p_value);
  f.Size(m.chi_square.bins);
  f.Bool(m.chi_square_valid);
  f.Doubles(m.grid_mb);
  f.Doubles(m.empirical_ccdf);
  f.Doubles(m.model_ccdf);
}

void HashUserTypeColumn(Fnv& f, const analysis::UserTypeColumn& c) {
  f.Size(c.users);
  for (const double v : c.user_share) f.D(v);
  for (const double v : c.store_share) f.D(v);
  for (const double v : c.retrieve_share) f.D(v);
}

void HashSessionSizes(Fnv& f,
                      const std::vector<analysis::SessionSizeBin>& bins) {
  f.Size(bins.size());
  for (const analysis::SessionSizeBin& b : bins) {
    f.Size(b.file_ops);
    f.Size(b.sessions);
    f.D(b.avg_mb);
    f.D(b.median_mb);
    f.D(b.p25_mb);
    f.D(b.p75_mb);
  }
}

void HashActivity(Fnv& f, const analysis::ActivityModelResult& a) {
  f.D(a.se.c);
  f.D(a.se.a);
  f.D(a.se.b);
  f.D(a.se.x0);
  f.D(a.se.r_squared);
  f.D(a.power_law.slope);
  f.D(a.power_law.intercept);
  f.D(a.power_law.r_squared);
  f.Size(a.power_law.n);
  f.Size(a.active_users);
  f.Doubles(a.ranked);
}

void HashLogBins(Fnv& f, const LogBins& b) {
  f.D(b.log10_lo());
  f.D(b.log10_hi());
  f.Size(b.bins());
  for (std::size_t i = 0; i < b.bins(); ++i) {
    f.U64(b.Count(i));
    f.D(b.Sum(i));
  }
  f.U64(b.Total());
  f.D(b.Min());
  f.D(b.Max());
}

void HashTDigest(Fnv& f, const TDigest& d) {
  const std::vector<Centroid> cs = d.CanonicalCentroids();
  f.Size(cs.size());
  for (const Centroid& c : cs) {
    f.D(c.mean);
    f.U64(c.weight);
  }
  f.U64(d.Count());
  f.D(d.Min());
  f.D(d.Max());
}

}  // namespace

std::uint64_t FingerprintReport(const FullReport& r) {
  Fnv f;
  f.Size(r.records);
  f.Size(r.mobile_users);
  f.Size(r.mobile_devices);
  f.D(r.android_access_share);

  f.Size(r.timeseries.hours.size());
  for (const auto& h : r.timeseries.hours) {
    f.I64(h.hour);
    f.U64(h.store_volume_bytes);
    f.U64(h.retrieve_volume_bytes);
    f.U64(h.stored_files);
    f.U64(h.retrieved_files);
  }

  const auto& im = r.interval_model;
  f.D(im.log10_histogram.lo());
  f.D(im.log10_histogram.hi());
  f.Size(im.log10_histogram.bins());
  for (std::size_t i = 0; i < im.log10_histogram.bins(); ++i)
    f.U64(im.log10_histogram.Count(i));
  f.U64(im.log10_histogram.Underflow());
  f.U64(im.log10_histogram.Overflow());
  f.Size(im.gmm.mixture.components().size());
  for (const auto& c : im.gmm.mixture.components()) {
    f.D(c.weight);
    f.D(c.mean);
    f.D(c.stddev);
  }
  f.D(im.gmm.log_likelihood);
  f.I64(im.gmm.iterations);
  f.Bool(im.gmm.converged);
  f.D(im.valley_tau);
  f.D(im.gmm_tau);
  f.D(im.intra_mean_seconds);
  f.D(im.inter_mean_seconds);

  f.Size(r.session_split.total);
  f.Size(r.session_split.store_only);
  f.Size(r.session_split.retrieve_only);
  f.Size(r.session_split.mixed);

  f.Size(r.burstiness.size());
  for (const auto& g : r.burstiness) {
    f.Size(g.min_ops_exclusive);
    f.Doubles(g.normalized_times);
  }

  HashFileSizeModel(f, r.store_size_model);
  HashFileSizeModel(f, r.retrieve_size_model);

  HashUserTypeColumn(f, r.mobile_only_column);
  HashUserTypeColumn(f, r.mobile_pc_column);
  HashUserTypeColumn(f, r.pc_only_column);

  f.Size(r.engagement.size());
  for (const auto& e : r.engagement) {
    f.U64(static_cast<std::uint64_t>(e.group));
    f.Size(e.day1_users);
    f.Doubles(e.active_on_day);
    f.D(e.never_returned);
  }
  f.Size(r.retrieval_returns.size());
  for (const auto& e : r.retrieval_returns) {
    f.U64(static_cast<std::uint64_t>(e.group));
    f.Size(e.day1_uploaders);
    f.Doubles(e.retrieved_by_day);
    f.D(e.never_retrieved);
  }

  HashActivity(f, r.store_activity);
  HashActivity(f, r.retrieve_activity);

  HashLogBins(f, r.sketches.intervals);
  HashLogBins(f, r.sketches.store_avg_mb);
  HashLogBins(f, r.sketches.retrieve_avg_mb);
  HashTDigest(f, r.sketches.store_avg_mb_digest);
  HashTDigest(f, r.sketches.retrieve_avg_mb_digest);
  f.U64(r.sketches.single_op_sessions);
  f.U64(r.sketches.over20_op_sessions);
  f.U64(r.sketches.ratio_middle_users);
  f.U64(r.sketches.ratio_sample_users);

  HashSessionSizes(f, r.store_session_sizes);
  HashSessionSizes(f, r.retrieve_session_sizes);
  for (const analysis::RatioCdf& c : r.ratio_cdfs) {
    f.U64(c.users);
    for (const std::uint64_t n : c.at_or_below) f.U64(n);
  }
  return f.hash();
}

}  // namespace mcloud::core
