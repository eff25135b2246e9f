#include "validate/paper_report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/burstiness.h"
#include "analysis/perf_analysis.h"
#include "model/paper_params.h"
#include "stats/bootstrap.h"
#include "stats/regression.h"
#include "stats/stretched_exponential.h"
#include "util/error.h"
#include "util/summary.h"
#include "util/timeutil.h"

namespace mcloud::validate {
namespace {

constexpr const char* kNoSamples = "no samples";

std::string Fmt(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

std::string Pct(double share) { return Fmt("%.1f%%", 100 * share); }

/// `n` of `of` as a percentage, or "no samples" when `of` is 0.
std::string PctOf(std::uint64_t n, std::uint64_t of) {
  return of ? Pct(static_cast<double>(n) / static_cast<double>(of))
            : kNoSamples;
}

/// num/den to three decimals, or "no samples" when `den` is 0.
std::string Ratio(double num, double den) {
  return den > 0 ? Fmt("%.3f", num / den) : kNoSamples;
}

constexpr std::array<std::pair<Direction, const char*>, 2> kDirections = {
    {{Direction::kStore, "store"}, {Direction::kRetrieve, "retrieve"}}};
constexpr std::array<std::pair<DeviceType, const char*>, 2> kDevices = {
    {{DeviceType::kAndroid, "Android"}, {DeviceType::kIos, "iOS"}}};

double Median(std::span<const double> xs) { return Percentile(xs, 50); }

/// Accumulates the report text: sections, their rows and series, and the
/// verdicts of the checks each section owns.
class Writer {
 public:
  explicit Writer(const ValidationRun& run) : run_(run) {}

  void Section(const char* name, const std::string& caption) {
    if (!out_.empty()) out_ += "\n";
    out_ += Fmt("## %s: %s\n", name, caption.c_str());
    rows_ = false;
  }

  /// One `quantity | paper | measured` row.
  void Row(const std::string& quantity, const std::string& paper,
           const std::string& measured) {
    if (!rows_) {
      out_ += Fmt("  %-52s %-20s %s\n", "quantity", "paper", "measured");
      rows_ = true;
    }
    out_ += Fmt("  %-52s %-20s %s\n", quantity.c_str(), paper.c_str(),
                measured.c_str());
  }

  void Series(const std::string& title) { out_ += "  " + title + "\n"; }
  void Line(std::string text) {
    text.erase(text.find_last_not_of(' ') + 1);
    out_ += "    " + text + "\n";
  }
  void Raw(const std::string& text) { out_ += text; }

  /// The grid a block of CDF rows is evaluated at.
  void Grid(const char* label, std::span<const double> grid) {
    std::string line = Fmt("%-22s", label);
    for (const double x : grid) line += Fmt(" %6.3g", x);
    Line(line);
  }

  /// One CDF row: the sample's size, then P(X <= x) at each grid point.
  void Cdf(const std::string& label, std::span<const double> sample,
           std::span<const double> grid) {
    if (sample.empty())
      return Line(Fmt("%-22s %s", label.c_str(), kNoSamples));
    const Ecdf ecdf(std::vector<double>(sample.begin(), sample.end()));
    std::string line = Fmt("%-22s", label.c_str());
    for (const double p : ecdf.OnGrid(grid)) line += Fmt(" %6.3f", p);
    Line(line + Fmt("  n=%zu", sample.size()));
  }

  /// The verdicts of `ids`, each of which must be a check of the run.
  void Checks(std::initializer_list<std::string_view> ids) {
    for (const std::string_view id : ids) {
      const auto it =
          std::find_if(run_.outcomes.begin(), run_.outcomes.end(),
                       [&](const CheckOutcome& o) { return o.id == id; });
      MCLOUD_CHECK(it != run_.outcomes.end(), "no check " + std::string(id));
      const CheckResult& r = it->result;
      out_ += Fmt("  check %s: %s %.9g, threshold %.9g: %s\n", it->id.c_str(),
                  r.metric.c_str(), r.statistic, r.threshold,
                  it->passed ? "PASS" : "FAIL");
      if (!it->passed) out_ += "    " + r.detail + "\n";
      ++rendered_;
    }
  }

  [[nodiscard]] std::size_t rendered() const { return rendered_; }
  [[nodiscard]] std::string& out() { return out_; }

 private:
  const ValidationRun& run_;
  std::string out_;
  bool rows_ = false;
  std::size_t rendered_ = 0;
};

void Overview(Writer& w, const core::FullReport& r) {
  w.Section("§2.2", "dataset overview");
  w.Row("records (paper: mobile logs only)",
        std::to_string(paper::kTotalMobileLogs), std::to_string(r.records));
  w.Row("mobile users", std::to_string(paper::kMobileUsers),
        std::to_string(r.mobile_users));
  w.Row("mobile devices per mobile user",
        Ratio(paper::kMobileDevices, paper::kMobileUsers),
        Ratio(static_cast<double>(r.mobile_devices),
              static_cast<double>(r.mobile_users)));
  w.Row("android share of mobile accesses", Pct(paper::kAndroidShare),
        Pct(r.android_access_share));
}

void Fig01(Writer& w, const core::FullReport& r) {
  const analysis::WorkloadTimeseries& ts = r.timeseries;
  w.Section("Fig 1", "temporal variation of the mobile workload (§2.4)");
  w.Row("peak hour of day", Fmt("%d", paper::kPeakHourOfDay),
        Fmt("%d", ts.PeakHourOfDay()));
  w.Row("retrieve/store volume ratio", "> 1",
        Ratio(ts.TotalRetrieveGb(), ts.TotalStoreGb()));
  w.Row("stored/retrieved file-count ratio",
        Fmt("> %g", paper::kStoredToRetrievedFileCountRatio),
        Ratio(static_cast<double>(ts.TotalStoredFiles()),
              static_cast<double>(ts.TotalRetrievedFiles())));

  w.Series("per day: volume, file operations and the busiest hour");
  w.Line(Fmt("%-4s %9s %12s %13s %16s %10s", "day", "store GB",
             "retrieve GB", "stored files", "retrieved files", "peak hour"));
  std::array<double, 24> by_hour{};
  double total = 0;
  for (std::size_t d = 0; d * 24 < ts.hours.size(); ++d) {
    analysis::HourBin day;
    double peak = -1;
    int peak_hour = 0;
    for (std::size_t h = d * 24; h < std::min(ts.hours.size(), d * 24 + 24);
         ++h) {
      const analysis::HourBin& b = ts.hours[h];
      day.store_volume_bytes += b.store_volume_bytes;
      day.retrieve_volume_bytes += b.retrieve_volume_bytes;
      day.stored_files += b.stored_files;
      day.retrieved_files += b.retrieved_files;
      const double gb = b.StoreVolumeGb() + b.RetrieveVolumeGb();
      by_hour[h % 24] += gb;
      total += gb;
      if (gb > peak) {
        peak = gb;
        peak_hour = static_cast<int>(h % 24);
      }
    }
    w.Line(Fmt("%-4s %9.2f %12.2f %13llu %16llu %7d:00",
               DayLabel(static_cast<int>(d)).c_str(), day.StoreVolumeGb(),
               day.RetrieveVolumeGb(),
               static_cast<unsigned long long>(day.stored_files),
               static_cast<unsigned long long>(day.retrieved_files),
               peak_hour));
  }
  w.Series("hour of day: share of the week's volume (%)");
  for (std::size_t first = 0; first < 24; first += 8) {
    std::string line = Fmt("%02zu-%02zu h", first, first + 7);
    for (std::size_t h = first; h < first + 8; ++h)
      line += Fmt(" %5.2f", total > 0 ? 100 * by_hour[h] / total : 0.0);
    w.Line(line);
  }
  w.Checks({"fig01_workload"});
}

void Fig03(Writer& w, const core::FullReport& r) {
  const analysis::IntervalModel& im = r.interval_model;
  const analysis::SessionTypeSplit& split = r.session_split;
  w.Section("Fig 3",
            "inter-operation intervals and session identification (§3.1.1)");
  const std::string tau_paper =
      Fmt("~%.0f min", paper::kSessionGapTau / kMinute);
  w.Row("intra-session GMM component mean",
        Fmt("~%.0f s", std::pow(10.0, paper::kIntraSessionGapMeanLog10)),
        Fmt("%.2f s", im.intra_mean_seconds));
  w.Row("inter-session GMM component mean",
        Fmt("~%.0f day",
            std::pow(10.0, paper::kInterSessionGapMeanLog10) / kDay),
        Fmt("%.2f days", im.inter_mean_seconds / kDay));
  w.Row("histogram valley (tau source)", tau_paper,
        Fmt("%.1f min", im.valley_tau / kMinute));
  w.Row("GMM equal-likelihood crossover", tau_paper,
        Fmt("%.1f min", im.gmm_tau / kMinute));
  w.Row("store-only session share", Pct(paper::kStoreOnlySessionShare),
        PctOf(split.store_only, split.total));
  w.Row("retrieve-only session share", Pct(paper::kRetrieveOnlySessionShare),
        PctOf(split.retrieve_only, split.total));
  w.Row("mixed session share", Pct(paper::kMixedSessionShare),
        PctOf(split.mixed, split.total));

  const Histogram& h = im.log10_histogram;
  w.Series(Fmt("%zu sessions at tau = %.0f s", split.total,
               paper::kSessionGapTau));
  w.Series("histogram of log10(inter-op seconds): % of the " +
           std::to_string(h.TotalInRange()) + " intervals in range");
  for (std::size_t first = 0; first < h.bins(); first += 10) {
    std::string line = Fmt("10^%.1f s  ", h.BinLeft(first));
    for (std::size_t i = first; i < std::min(h.bins(), first + 10); ++i)
      line += Fmt(" %5.2f", 100 * h.Fraction(i));
    w.Line(line);
  }
  w.Line(Fmt("p50 %.3g s, p90 %.3g s, p99 %.3g s",
             std::pow(10.0, h.ValueAtQuantile(0.50)),
             std::pow(10.0, h.ValueAtQuantile(0.90)),
             std::pow(10.0, h.ValueAtQuantile(0.99))));
  w.Series("two-component Gaussian mixture over log10 seconds");
  for (const auto& c : im.gmm.mixture.components()) {
    w.Line(Fmt("weight %.3f, mean 10^%.2f s (%.3g s), stddev %.2f", c.weight,
               c.mean, std::pow(10.0, c.mean), c.stddev));
  }
  w.Checks({"fig02_session_split", "fig03_intervals"});
}

void Fig04(Writer& w, const core::FullReport& r) {
  w.Section("Fig 4", "burstiness: normalized user operating time (§3.1.2)");
  const double bound = paper::kBurstyOperatingTimeBound;
  for (const analysis::BurstinessGroup& g : r.burstiness) {
    w.Row(Fmt("share of >%zu-op sessions below %.1f", g.min_ops_exclusive,
              bound),
          g.min_ops_exclusive == 1
              ? Fmt("> %.0f%%", 100 * paper::kBurstyOperatingTimeQuantile)
              : "higher",
          g.normalized_times.empty() ? kNoSamples
                                     : Pct(analysis::FractionBelow(g, bound)));
  }
  if (!r.burstiness.empty()) {
    const auto& many = r.burstiness.back().normalized_times;
    w.Row(Fmt("median normalized time, >%zu-op sessions",
              r.burstiness.back().min_ops_exclusive),
          Fmt("~%.0f%%", 100 * paper::kManyOpOperatingTimeMedian),
          many.empty() ? kNoSamples : Pct(Median(many)));
  }
  w.Series("CDF of the normalized operating time");
  const std::vector<double> grid = LinGrid(0.0, 0.4, 9);
  w.Grid("operating/length", grid);
  for (const analysis::BurstinessGroup& g : r.burstiness)
    w.Cdf(Fmt("> %zu ops", g.min_ops_exclusive), g.normalized_times, grid);
  w.Checks({"fig04_burstiness"});
}

void Fig05(Writer& w, const core::FullReport& r) {
  const std::size_t total = r.session_split.total;
  const auto& sk = r.sketches;
  w.Section("Fig 5", "session size against file operations (§3.1.3)");
  w.Row("single-operation session share",
        Fmt("~%.0f%%", 100 * paper::kSingleOpSessionShare),
        PctOf(sk.single_op_sessions, total));
  w.Row(">20-operation session share",
        Fmt("~%.0f%%", 100 * paper::kOver20OpSessionShare),
        PctOf(sk.over20_op_sessions, total));
  std::vector<double> xs;
  std::vector<double> ys;
  for (const analysis::SessionSizeBin& b : r.store_session_sizes) {
    if (b.sessions < 5) continue;
    xs.push_back(static_cast<double>(b.file_ops));
    ys.push_back(b.avg_mb);
  }
  w.Row("store-only volume growth",
        Fmt("~%.1f MB/file", paper::kStoreLinearCoefficientMB),
        xs.size() >= 2 ? Fmt("%.2f MB/file", FitLinear(xs, ys).slope)
                       : kNoSamples);
  const auto single = std::find_if(
      r.retrieve_session_sizes.begin(), r.retrieve_session_sizes.end(),
      [](const analysis::SessionSizeBin& b) { return b.file_ops == 1; });
  const bool has_single = single != r.retrieve_session_sizes.end();
  w.Row("avg volume, 1-file retrieve sessions",
        Fmt("~%.0f MB", paper::kRetrieveSingleFileAvgMB),
        has_single ? Fmt("%.1f MB", single->avg_mb) : kNoSamples);
  w.Row("1-file retrieve average above its 75th percentile", "yes",
        has_single ? (single->avg_mb > single->p75_mb ? "yes" : "no")
                   : kNoSamples);

  const std::array<std::size_t, 8> grid = {1, 2, 3, 5, 10, 20, 50, 100};
  const auto cdf = [&](const char* label,
                       const std::vector<analysis::SessionSizeBin>& bins,
                       std::size_t sessions) {
    if (sessions == 0) return w.Line(Fmt("%-22s %s", label, kNoSamples));
    std::string line = Fmt("%-22s", label);
    for (const std::size_t x : grid) {
      std::size_t at_most = 0;
      for (const analysis::SessionSizeBin& b : bins)
        if (b.file_ops <= x) at_most += b.sessions;
      line += Fmt(" %6.3f", static_cast<double>(at_most) /
                                static_cast<double>(sessions));
    }
    w.Line(line + Fmt("  n=%zu", sessions));
  };
  w.Series("(a) CDF of file operations per session");
  std::string header = Fmt("%-22s", "file operations");
  for (const std::size_t x : grid) header += Fmt(" %6zu", x);
  w.Line(header);
  cdf("store-only", r.store_session_sizes, r.session_split.store_only);
  cdf("retrieve-only", r.retrieve_session_sizes,
      r.session_split.retrieve_only);

  const auto bins = [&](const char* title,
                        const std::vector<analysis::SessionSizeBin>& all) {
    w.Series(title);
    w.Line(Fmt("%6s %9s %9s %9s %9s %9s", "files", "sessions", "avg MB",
               "median MB", "p25 MB", "p75 MB"));
    bool any = false;
    for (const analysis::SessionSizeBin& b : all) {
      if (std::find(grid.begin(), grid.end(), b.file_ops) == grid.end())
        continue;
      w.Line(Fmt("%6zu %9zu %9.1f %9.1f %9.1f %9.1f", b.file_ops, b.sessions,
                 b.avg_mb, b.median_mb, b.p25_mb, b.p75_mb));
      any = true;
    }
    if (!any) w.Line(kNoSamples);
  };
  bins("(b) store-only session volume by file operations",
       r.store_session_sizes);
  bins("(c) retrieve-only session volume by file operations",
       r.retrieve_session_sizes);
  w.Checks({"fig05_session_size"});
}

/// "x, y, z" with `fmt` per value.
std::string List(const char* fmt, std::span<const double> xs) {
  std::string text;
  for (const double x : xs) text += (text.empty() ? "" : ", ") + Fmt(fmt, x);
  return text;
}

void Fig06(Writer& w, const core::FullReport& r) {
  w.Section("Fig 6", "average file size per session: mixture-exponential "
                     "models (§3.1.4, Table 2)");
  const auto rows = [&](const char* name, const analysis::FileSizeModel& m,
                        const paper::MixtureExpParams& p) {
    std::vector<double> weights;
    std::vector<double> means;
    for (const auto& c : m.selection.fit.mixture.components()) {
      weights.push_back(c.weight);
      means.push_back(c.mean);
    }
    w.Row(Fmt("%s component weights (alpha)", name),
          List("%.2f", p.weights), List("%.2f", weights));
    w.Row(Fmt("%s component means (mu, MB)", name),
          List("%.4g", p.means_mb), List("%.4g", means));
    w.Row(Fmt("%s chi-square goodness of fit", name), "passes at 5%",
          m.chi_square_valid
              ? Fmt("%.1f on %.0f dof, p %.3g", m.chi_square.statistic,
                    m.chi_square.dof, m.chi_square.p_value)
              : "skipped (sample too small)");
  };
  rows("store-only", r.store_size_model, paper::kStoreFileSizeParams);
  rows("retrieve-only", r.retrieve_size_model, paper::kRetrieveFileSizeParams);
  w.Series("CCDF of the average file size (MB): empirical and model");
  const auto ccdf = [&](const char* name, const analysis::FileSizeModel& m) {
    std::string grid = Fmt("%-22s", Fmt("%s MB", name).c_str());
    std::string emp = Fmt("%-22s", "  empirical");
    std::string mod = Fmt("%-22s", "  model");
    for (std::size_t i = 0; i < m.grid_mb.size(); i += 6) {
      grid += Fmt(" %7.3g", m.grid_mb[i]);
      emp += Fmt(" %7.4f", m.empirical_ccdf[i]);
      mod += Fmt(" %7.4f", m.model_ccdf[i]);
    }
    w.Line(grid);
    w.Line(emp);
    w.Line(mod);
  };
  ccdf("store-only", r.store_size_model);
  ccdf("retrieve-only", r.retrieve_size_model);
  w.Checks(
      {"fig06_filesize_fit", "tab02_store_sizes", "tab02_retrieve_sizes"});
}

void Fig07(Writer& w, const core::FullReport& r) {
  using analysis::RatioGroup;
  const auto& cdfs = r.ratio_cdfs;
  const auto at = [&](RatioGroup g) -> const analysis::RatioCdf& {
    return cdfs[static_cast<std::size_t>(g)];
  };
  // Storage-dominant: a volume ratio above 1e5 (the upload-only bound).
  const auto dominant = [&](RatioGroup g) {
    return at(g).users ? Pct(1.0 - at(g).Cdf(5)) : kNoSamples;
  };
  w.Section("Fig 7", "per-user stored/retrieved volume ratio (§3.2.1)");
  w.Row("mobile-only users with |log10 ratio| < 5",
        Fmt("%s (mixed class)", Pct(paper::kMobileMixedShare).c_str()),
        PctOf(r.sketches.ratio_middle_users, r.sketches.ratio_sample_users));
  w.Row("storage-dominant share, mobile only", "highest",
        dominant(RatioGroup::kMobileOnly));
  w.Row("storage-dominant share, mobile only, >1 device", "below mobile only",
        dominant(RatioGroup::kTwoDevicesPlus));
  w.Row("storage-dominant share, PC only", "below mobile only",
        dominant(RatioGroup::kPcOnly));
  w.Row("storage-dominant share, mobile & PC", "below mobile only",
        dominant(RatioGroup::kMobileAndPc));

  w.Series("CDF over log10(stored/retrieved volume)");
  std::string header = Fmt("%-22s", "log10 ratio");
  for (int k = analysis::RatioCdf::kLo; k <= analysis::RatioCdf::kHi; k += 2)
    header += Fmt(" %6d", k);
  w.Line(header);
  static constexpr std::array<const char*, analysis::kRatioGroups> kLabels = {
      "(a) mobile & PC", "(a) mobile only", "(a) PC only",
      "(b) 1+ devices",  "(b) >1 device",   "(b) >2 devices"};
  for (std::size_t g = 0; g < cdfs.size(); ++g) {
    if (cdfs[g].users == 0) {
      w.Line(Fmt("%-22s %s", kLabels[g], kNoSamples));
      continue;
    }
    std::string line = Fmt("%-22s", kLabels[g]);
    for (int k = analysis::RatioCdf::kLo; k <= analysis::RatioCdf::kHi;
         k += 2)
      line += Fmt(" %6.3f", cdfs[g].Cdf(k));
    w.Line(line + "  n=" + std::to_string(cdfs[g].users));
  }
  w.Checks({"fig07_usage_ratio"});
}

void Tab03(Writer& w, const core::FullReport& r) {
  struct Column {
    const char* name;
    const analysis::UserTypeColumn& measured;
    std::array<double, 4> users;  // by paper::UserClass order
    double upload_store;
    double download_retrieve;
  };
  const std::array<Column, 3> columns = {{
      {"mobile only", r.mobile_only_column,
       {paper::kMobileOccasionalShare, paper::kMobileUploadOnlyShare,
        paper::kMobileDownloadOnlyShare, paper::kMobileMixedShare},
       paper::kMobileUploadOnlyStoreVolume,
       paper::kMobileDownloadOnlyRetrieveVolume},
      {"mobile & PC", r.mobile_pc_column,
       {paper::kBothOccasionalShare, paper::kBothUploadOnlyShare,
        paper::kBothDownloadOnlyShare, paper::kBothMixedShare},
       paper::kBothUploadOnlyStoreVolume,
       paper::kBothDownloadOnlyRetrieveVolume},
      {"PC only", r.pc_only_column,
       {paper::kPcOccasionalShare, paper::kPcUploadOnlyShare,
        paper::kPcDownloadOnlyShare, paper::kPcMixedShare},
       paper::kPcUploadOnlyStoreVolume, paper::kPcDownloadOnlyRetrieveVolume},
  }};
  static constexpr std::array<const char*, 4> kClasses = {
      "occasional", "upload-only", "download-only", "mixed"};
  const auto up = static_cast<std::size_t>(paper::UserClass::kUploadOnly);
  const auto down = static_cast<std::size_t>(paper::UserClass::kDownloadOnly);
  w.Section("Table 3", "user classes per device profile (§3.2.1)");
  for (const Column& c : columns) {
    const bool any = c.measured.users > 0;
    for (std::size_t k = 0; k < kClasses.size(); ++k) {
      w.Row(Fmt("%s: %s users", c.name, kClasses[k]), Pct(c.users[k]),
            any ? Pct(c.measured.user_share[k]) : kNoSamples);
    }
    w.Row(Fmt("%s: upload-only share of store volume", c.name),
          Pct(c.upload_store),
          any ? Pct(c.measured.store_share[up]) : kNoSamples);
    w.Row(Fmt("%s: download-only share of retrieve volume", c.name),
          Pct(c.download_retrieve),
          any ? Pct(c.measured.retrieve_share[down]) : kNoSamples);
  }
  w.Series("store / retrieve volume share of each class (%)");
  std::string header = Fmt("%-22s", "column (users)");
  for (const char* k : kClasses) header += Fmt(" %13s", k);
  w.Line(header);
  for (const Column& c : columns) {
    std::string line =
        Fmt("%-22s", Fmt("%s (%zu)", c.name, c.measured.users).c_str());
    for (std::size_t k = 0; k < kClasses.size(); ++k) {
      line += Fmt(" %6.1f/%-6.1f", 100 * c.measured.store_share[k],
                  100 * c.measured.retrieve_share[k]);
    }
    w.Line(line);
  }
  w.Checks({"tab03_user_types"});
}

template <typename Curve>
const Curve* FindGroup(const std::vector<Curve>& curves,
                       analysis::EngagementGroup g) {
  for (const Curve& c : curves)
    if (c.group == g) return &c;
  return nullptr;
}

void Fig08(Writer& w, const core::FullReport& r) {
  using analysis::EngagementGroup;
  const auto never = [&](EngagementGroup g) {
    const analysis::EngagementCurve* c = FindGroup(r.engagement, g);
    return c && c->day1_users ? Pct(c->never_returned) : kNoSamples;
  };
  w.Section("Fig 8", "user engagement after the first day (§3.2.2)");
  w.Row("1-device users never returning in the week",
        Fmt("~%.0f%%", 100 * paper::kSingleDeviceNoReturnShare),
        never(EngagementGroup::kOneDevice));
  w.Row(">1-device users never returning",
        Fmt("< %.0f%%", 100 * paper::kMultiDeviceNoReturnShare),
        never(EngagementGroup::kMultiDevice));
  w.Row("mobile & PC users never returning",
        Fmt("< %.0f%%", 100 * paper::kMultiDeviceNoReturnShare),
        never(EngagementGroup::kMobileAndPc));
  w.Series("fraction of day-1 users active on day x");
  std::string header = Fmt("%-16s %9s", "group", "users");
  const std::size_t days =
      r.engagement.empty() ? 0 : r.engagement.front().active_on_day.size();
  for (std::size_t d = 1; d <= days; ++d) header += Fmt("  day %zu", d);
  w.Line(header + "  never");
  for (const analysis::EngagementCurve& c : r.engagement) {
    std::string line =
        Fmt("%-16s %9zu", std::string(analysis::ToString(c.group)).c_str(),
            c.day1_users);
    for (const double v : c.active_on_day) line += Fmt("  %5.2f", v);
    w.Line(line + Fmt("  %5.2f", c.never_returned));
  }
  w.Checks({"fig08_engagement"});
}

void Fig09(Writer& w, const core::FullReport& r) {
  using analysis::EngagementGroup;
  const auto never = [&](EngagementGroup g) {
    const analysis::RetrievalReturnCurve* c =
        FindGroup(r.retrieval_returns, g);
    return c && c->day1_uploaders ? Pct(c->never_retrieved) : kNoSamples;
  };
  const std::string most =
      Fmt("~%.0f%%", 100 * paper::kMobileOnlyNoRetrievalShare);
  w.Section("Fig 9", "retrieval after a first-day upload (§3.2.2)");
  w.Row("1-device mobile-only uploaders never retrieving", most,
        never(EngagementGroup::kOneDevice));
  w.Row(">1-device mobile-only uploaders never retrieving", most,
        never(EngagementGroup::kMultiDevice));
  w.Row("mobile & PC uploaders never retrieving", "below 1 device",
        never(EngagementGroup::kMobileAndPc));
  w.Series("cumulative P(retrieval by day x | upload on day 1)");
  std::string header = Fmt("%-16s %9s", "group", "uploaders");
  const std::size_t days = r.retrieval_returns.empty()
                               ? 0
                               : r.retrieval_returns.front()
                                     .retrieved_by_day.size();
  for (std::size_t d = 0; d < days; ++d) header += Fmt("  day %zu", d);
  w.Line(header + "  never");
  for (const analysis::RetrievalReturnCurve& c : r.retrieval_returns) {
    std::string line =
        Fmt("%-16s %9zu", std::string(analysis::ToString(c.group)).c_str(),
            c.day1_uploaders);
    for (const double v : c.retrieved_by_day) line += Fmt("  %5.2f", v);
    w.Line(line + Fmt("  %5.2f", c.never_retrieved));
  }
  w.Checks({"fig09_retrieval_return"});
}

/// Bootstrap resamples and seed of the Fig 10 confidence intervals.
constexpr std::size_t kActivityResamples = 100;
constexpr std::uint64_t kActivityBootstrapSeed = 7;

void Fig10(Writer& w, const core::FullReport& r) {
  struct Side {
    const char* name;
    const analysis::ActivityModelResult& fit;
    const paper::SeParams& published;
  };
  const std::array<Side, 2> sides = {{
      {"store", r.store_activity, paper::kStoreActivitySe},
      {"retrieve", r.retrieve_activity, paper::kRetrieveActivitySe},
  }};
  w.Section("Fig 10", "stretched-exponential user activity against the "
                      "power law (§3.2.3)");
  for (const Side& s : sides) {
    const analysis::ActivityModelResult& a = s.fit;
    if (a.ranked.empty()) {
      w.Row(Fmt("%s SE fit", s.name), "", kNoSamples);
      continue;
    }
    // 95% percentile intervals of (c, a) over resamples of the ranked
    // per-user counts.
    const std::vector<BootstrapCi> ci = BootstrapPercentileCi(
        a.ranked,
        [](std::span<const double> sample) {
          const StretchedExponentialFit fit =
              FitStretchedExponentialRank(sample);
          return std::vector<double>{fit.c, fit.a};
        },
        kActivityResamples, 0.95, kActivityBootstrapSeed);
    w.Row(Fmt("%s SE stretch factor c (95%% CI)", s.name),
          Fmt("%.2f", s.published.c),
          Fmt("%.3f [%.3f, %.3f]", a.se.c, ci[0].lo, ci[0].hi));
    w.Row(Fmt("%s SE slope a (95%% CI)", s.name), Fmt("%.3f", s.published.a),
          Fmt("%.3f [%.3f, %.3f]", a.se.a, ci[1].lo, ci[1].hi));
    w.Row(Fmt("%s SE intercept b (population dependent)", s.name),
          Fmt("%.3f", s.published.b), Fmt("%.3f", a.se.b));
    w.Row(Fmt("%s SE R^2", s.name), Fmt("%.4f", s.published.r2),
          Fmt("%.4f", a.se.r_squared));
    w.Row(Fmt("%s SE beats the power law", s.name), "yes",
          Fmt("%s (power-law R^2 %.4f)",
              a.se.r_squared > a.power_law.r_squared ? "yes" : "no",
              a.power_law.r_squared));
  }
  w.Series(Fmt("rank curves (%zu resamples, seed %llu, for the CIs): data "
               "and SE fit",
               kActivityResamples,
               static_cast<unsigned long long>(kActivityBootstrapSeed)));
  for (const Side& s : sides) {
    std::vector<std::size_t> ranks;
    for (std::size_t rank = 1; rank <= s.fit.ranked.size();
         rank = rank < 4 ? rank + 1 : rank * 3)
      ranks.push_back(rank);
    const std::vector<double> fit = analysis::SePredictedCurve(s.fit.se, ranks);
    std::string rank_line = Fmt("%-14s", Fmt("%s rank", s.name).c_str());
    std::string data_line = Fmt("%-14s", "  data");
    std::string fit_line = Fmt("%-14s", "  SE fit");
    for (std::size_t k = 0; k < ranks.size(); ++k) {
      rank_line += Fmt(" %7zu", ranks[k]);
      data_line += Fmt(" %7.0f", s.fit.ranked[ranks[k] - 1]);
      fit_line += Fmt(" %7.1f", fit[k]);
    }
    w.Line(rank_line);
    w.Line(data_line);
    w.Line(fit_line);
  }
  w.Checks({"fig10_store_activity", "fig10_retrieve_activity"});
}

std::string MedianSeconds(std::span<const double> xs) {
  return xs.empty() ? kNoSamples : Fmt("%.2f s", Median(xs));
}

void Fig12(Writer& w, const ValidationInputs& in) {
  // times[d][v]: chunk transfer times in kDirections[d] on kDevices[v].
  std::array<std::array<std::vector<double>, 2>, 2> times;
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t v = 0; v < 2; ++v)
      times[d][v] = analysis::PerfTransferTimes(
          in.fleet_perf, kDevices[v].first, kDirections[d].first);
  const auto& [up_a, up_i] = times[0];
  const auto& [down_a, down_i] = times[1];
  w.Section("Fig 12", "per-chunk transfer time by device (§4.1)");
  w.Row("median Android upload chunk time",
        Fmt("%.1f s", paper::kMedianUploadTimeAndroid), MedianSeconds(up_a));
  w.Row("median iOS upload chunk time",
        Fmt("%.1f s", paper::kMedianUploadTimeIos), MedianSeconds(up_i));
  const bool all = !up_a.empty() && !up_i.empty() && !down_a.empty() &&
                   !down_i.empty();
  const double up_gap = all ? Median(up_a) / Median(up_i) : 0;
  const double down_gap = all ? Median(down_a) / Median(down_i) : 0;
  w.Row("Android/iOS upload slowdown",
        Fmt("~%.1fx", paper::kMedianUploadTimeAndroid /
                          paper::kMedianUploadTimeIos),
        all ? Fmt("%.2fx", up_gap) : kNoSamples);
  w.Row("retrieval gap smaller than the upload gap", "yes",
        all ? Fmt("%s (%.2fx)", down_gap < up_gap ? "yes" : "no", down_gap)
            : kNoSamples);
  w.Series("CDF of the transfer time of one chunk (s)");
  const std::vector<double> grid = LinGrid(0.0, 20.0, 11);
  w.Grid("seconds", grid);
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t v = 0; v < 2; ++v)
      w.Cdf(Fmt("%s %s", kDirections[d].second, kDevices[v].second),
            times[d][v], grid);
  w.Checks({"fig12_chunk_time"});
}

void Fig13(Writer& w, const ValidationRun& run) {
  const tcp::FlowResult& a = run.inputs->android_flow;
  const tcp::FlowResult& i = run.inputs->ios_flow;
  w.Section("Fig 13", "sequence number and in-flight bytes of one storage "
                      "flow per platform (§4.1)");
  w.Row("Android/iOS flow duration", "> 1",
        i.duration > 0 ? Fmt("%.2f (%.1f s / %.1f s)",
                             a.duration / i.duration, a.duration, i.duration)
                       : kNoSamples);
  w.Row("slow-start restarts, Android and iOS", "Android restarts",
        std::to_string(a.restarts) + " and " + std::to_string(i.restarts));
  Bytes max_inflight = 0;
  for (const tcp::FlowResult* f : {&a, &i})
    for (const tcp::PacketSample& p : f->trace)
      max_inflight = std::max(max_inflight, p.inflight);
  w.Row("max in-flight bytes (64 KB server window)",
        "<= " + std::to_string(paper::kServerReceiveWindow),
        std::to_string(max_inflight));
  w.Series(Fmt("timelines of one %.0f MB upload at RTT %.0f ms "
               "(t s, seq KB, in-flight KB)",
               ToMB(run.options.flow_file_size), 1000 * paper::kMedianRtt));
  for (const auto& [name, f] :
       {std::pair{"iOS", &i}, std::pair{"Android", &a}}) {
    w.Line(Fmt("%s: %.1f s, %zu chunks, %llu restarts, %zu samples", name,
               f->duration, f->chunks.size(),
               static_cast<unsigned long long>(f->restarts),
               f->trace.size()));
    const std::size_t step = std::max<std::size_t>(1, f->trace.size() / 12);
    for (std::size_t k = 0; k < f->trace.size(); k += step) {
      const tcp::PacketSample& p = f->trace[k];
      w.Line(Fmt("  %8.2f %10.0f %8.1f", p.t,
                 static_cast<double>(p.seq) / kKiB,
                 static_cast<double>(p.inflight) / kKiB));
    }
  }
  w.Checks({"fig13_flow_timeline"});
}

void Fig14(Writer& w, const ValidationInputs& in) {
  const std::vector<double> rtts = analysis::RttSamples(in.fleet_logs);
  w.Section("Fig 14", "RTT of chunk transfers (§4.1)");
  w.Row("median chunk RTT", Fmt("~%.0f ms", 1000 * paper::kMedianRtt),
        rtts.empty() ? kNoSamples : Fmt("%.0f ms", 1000 * Median(rtts)));
  w.Series("CDF of the per-chunk RTT (s)");
  const std::vector<double> grid = {0.01, 0.02, 0.05, 0.1, 0.2,
                                    0.5,  1,    2,    5,   10};
  w.Grid("seconds", grid);
  w.Cdf("chunk RTT", rtts, grid);
  if (!rtts.empty()) {
    const std::vector<double> p =
        Percentiles(rtts, std::vector<double>{10, 25, 50, 75, 90, 99});
    w.Line(Fmt("p10 %.3g s, p25 %.3g s, p50 %.3g s, p75 %.3g s, p90 %.3g s, "
               "p99 %.3g s",
               p[0], p[1], p[2], p[3], p[4], p[5]));
  }
  w.Checks({"fig14_rtt"});
}

void Fig15(Writer& w, const ValidationInputs& in) {
  const std::vector<double> swnd =
      analysis::SendingWindowEstimates(in.fleet_logs);
  const auto window = static_cast<double>(paper::kServerReceiveWindow);
  std::size_t over = 0;
  for (const double s : swnd)
    if (s > 1.25 * window) ++over;
  w.Section("Fig 15", "estimated sending window of storage flows (§4.1)");
  w.Row("estimates above 1.25x the 64 KB server window", "~0",
        PctOf(over, swnd.size()));
  w.Row("p99 estimate",
        "<= " + std::to_string(paper::kServerReceiveWindow) + " B",
        swnd.empty() ? kNoSamples : Fmt("%.0f B", Percentile(swnd, 99)));
  // One bin per doubling from 1 KB to 128 KB, over log2 bytes.
  Histogram hist(std::log2(1024.0), std::log2(128.0 * 1024), 7);
  for (const double s : swnd)
    if (s > 0) hist.Add(std::log2(s));
  w.Series("distribution over window size (% of estimates in range)");
  std::string bounds = Fmt("%-10s", "KB");
  std::string share = Fmt("%-10s", "share");
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    bounds += Fmt(" %9s", Fmt("%.0f-%.0f", std::exp2(hist.BinLeft(b)) / 1024,
                              std::exp2(hist.BinLeft(b) + 1) / 1024)
                              .c_str());
    share += Fmt(" %9.2f", 100 * hist.Fraction(b));
  }
  w.Line(bounds);
  w.Line(share);
  if (swnd.empty()) {
    w.Line(kNoSamples);
  } else {
    w.Line(Fmt("median %.0f B, p99 %.0f B; p99 of the histogram %.0f B, "
               "n=%zu",
               Median(swnd), Percentile(swnd, 99),
               std::exp2(hist.ValueAtQuantile(0.99)), swnd.size()));
  }
  w.Checks({"fig15_swnd"});
}

void Fig16(Writer& w, const ValidationInputs& in) {
  const auto& perf = in.fleet_perf;
  const auto gaps = [&](DeviceType d) {
    return analysis::IdleToRtoRatios(perf, d, Direction::kStore);
  };
  const auto restart_share = [&](DeviceType d) {
    return gaps(d).empty()
               ? kNoSamples
               : Pct(analysis::SlowStartRestartShare(perf, d,
                                                     Direction::kStore));
  };
  const auto tsrv_median = [&](DeviceType d) {
    const std::vector<double> t =
        analysis::TsrvSamples(perf, d, Direction::kStore);
    return t.empty() ? kNoSamples : Fmt("%.0f ms", 1000 * Median(t));
  };
  const std::vector<double> clt_retrieve_a =
      analysis::TcltSamples(perf, DeviceType::kAndroid, Direction::kRetrieve);
  w.Section("Fig 16", "idle time between chunks: T_clt, T_srv and the RTO "
                      "(§4.2)");
  w.Row("Android storage gaps exceeding the RTO",
        Fmt("~%.0f%%", 100 * paper::kAndroidIdleOverRtoShare),
        restart_share(DeviceType::kAndroid));
  w.Row("iOS storage gaps exceeding the RTO",
        Fmt("~%.0f%%", 100 * paper::kIosIdleOverRtoShare),
        restart_share(DeviceType::kIos));
  const std::string tsrv = Fmt("~%.0f ms", 1000 * paper::kMedianServerTime);
  w.Row("median T_srv, Android storage", tsrv,
        tsrv_median(DeviceType::kAndroid));
  w.Row("median T_srv, iOS storage", tsrv, tsrv_median(DeviceType::kIos));
  w.Row("p90 T_clt, Android retrieval",
        Fmt("~%.0f s", paper::kAndroidRetrievalP90Tclt),
        clt_retrieve_a.empty()
            ? kNoSamples
            : Fmt("%.2f s", Percentile(clt_retrieve_a, 90)));

  w.Series("(a, b) CDFs of T_clt and T_srv (s)");
  const std::vector<double> grid = {0.001, 0.01, 0.03, 0.1, 0.3,
                                    1,     3,    10,   30};
  w.Grid("seconds", grid);
  for (const auto& [dir, dir_name] : kDirections) {
    for (const auto& [dev, dev_name] : kDevices) {
      w.Cdf(Fmt("%s T_clt %s", dir_name, dev_name),
            analysis::TcltSamples(perf, dev, dir), grid);
      w.Cdf(Fmt("%s T_srv %s", dir_name, dev_name),
            analysis::TsrvSamples(perf, dev, dir), grid);
    }
  }
  w.Series("(c) CDF of the idle time over the RTO");
  const std::vector<double> ratio_grid = LinGrid(0.0, 5.0, 11);
  w.Grid("idle/RTO", ratio_grid);
  for (const auto& [dir, dir_name] : kDirections)
    for (const auto& [dev, dev_name] : kDevices)
      w.Cdf(Fmt("%s %s", dir_name, dev_name),
            analysis::IdleToRtoRatios(perf, dev, dir), ratio_grid);
  w.Checks({"fig16_idle_dissection"});
}

}  // namespace

std::string RenderReport(const ValidationRun& run) {
  MCLOUD_REQUIRE(run.inputs != nullptr,
                 "the paper report needs the run's inputs");
  const ValidationInputs& in = *run.inputs;
  const core::FullReport& r = in.report;
  Writer w(run);
  w.Raw(Fmt("=== paper report: %zu users, seed %llu ===\n",
            run.options.users,
            static_cast<unsigned long long>(run.options.seed)));
  Overview(w, r);
  Fig01(w, r);
  Fig03(w, r);
  Fig04(w, r);
  Fig05(w, r);
  Fig06(w, r);
  Fig07(w, r);
  Tab03(w, r);
  Fig08(w, r);
  Fig09(w, r);
  Fig10(w, r);
  Fig12(w, in);
  Fig13(w, run);
  Fig14(w, in);
  Fig15(w, in);
  Fig16(w, in);
  w.Section("Table 4", "summary of findings and implications");
  w.Raw(core::RenderFindings(r));
  w.Checks({"tab04_summary"});
  MCLOUD_CHECK(w.rendered() == run.outcomes.size(),
               "a check belongs to no section of the paper report");

  std::string& out = w.out();
  out += Fmt("--- %zu/%zu checks passed; generate %.1fs analyze %.1fs "
             "fleet %.1fs checks %.1fs (total %.1fs); sketches %.1f KiB\n",
             run.Passed(), run.outcomes.size(), run.generate_s, run.analyze_s,
             run.fleet_s, run.checks_s, run.total_s,
             static_cast<double>(run.sketch_bytes) / 1024.0);
  if (!run.fleet_shards.empty()) {
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    for (const cloud::ShardTelemetry& t : run.fleet_shards) {
      events += t.queue.executed;
      cancelled += t.queue.cancelled;
    }
    out += Fmt("--- fleet: %zu shards, %llu events executed "
               "(%llu cancelled); manifest fingerprint %016llx\n",
               run.fleet_shards.size(),
               static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(cancelled),
               static_cast<unsigned long long>(ManifestFingerprint(run)));
  }
  return std::move(out);
}

}  // namespace mcloud::validate
