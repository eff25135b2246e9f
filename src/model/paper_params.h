// Every number the paper reports, in one place, with section/figure
// citations. The workload generator is calibrated from these constants and
// the paper report (`mcloudctl validate`) prints them as the "paper" column
// next to measured values.
//
// Where the paper publishes a fitted model (Table 2 mixtures, Fig 10 SE
// models, Fig 3 GMM component means), builder functions return the
// distribution object directly.
#pragma once

#include <array>

#include "util/distributions.h"
#include "util/units.h"

namespace mcloud::paper {

// ---------------------------------------------------------------------------
// §2.2 Dataset description
// ---------------------------------------------------------------------------
inline constexpr std::uint64_t kTotalMobileLogs = 349'092'451;
inline constexpr std::uint64_t kMobileUsers = 1'148'640;
inline constexpr std::uint64_t kMobileDevices = 1'396'494;
inline constexpr double kAndroidShare = 0.784;   ///< of mobile accesses
inline constexpr std::uint64_t kMobileAndPcUsers = 164'764;
inline constexpr double kMobileAndPcShare = 0.143;
inline constexpr std::uint64_t kPacketTraceFlows = 40'386;
inline constexpr Seconds kObservationPeriod = kWeek;

// ---------------------------------------------------------------------------
// §3.1.1 File operation interval & session identification (Fig 3)
// ---------------------------------------------------------------------------
/// Session gap threshold τ: the Fig 3 histogram has a valley at ~1 hour.
inline constexpr Seconds kSessionGapTau = kHour;

/// Two-component Gaussian mixture over log10(inter-op seconds):
/// intra-session component mean ≈ 10 s; inter-session mean ≈ 1 day.
/// Mixture weights and stddevs are not printed in the paper; the weights
/// follow from the session structure (most gaps are intra-session) and the
/// stddevs are chosen so the two modes separate with the valley at 1 h,
/// matching the figure's shape.
inline constexpr double kIntraSessionGapMeanLog10 = 1.0;    // 10 s
inline constexpr double kIntraSessionGapStddevLog10 = 0.65;
inline constexpr double kInterSessionGapMeanLog10 = 4.9365; // ≈ 86400 s
inline constexpr double kInterSessionGapStddevLog10 = 0.55;
inline constexpr double kIntraSessionGapWeight = 0.80;

[[nodiscard]] GaussianMixture InterOpGapModel();

/// Session counts (§3.1.1).
inline constexpr std::uint64_t kTotalSessions = 2'377'124;
inline constexpr double kStoreOnlySessionShare = 0.682;
inline constexpr double kRetrieveOnlySessionShare = 0.299;
inline constexpr double kMixedSessionShare = 0.019;

// ---------------------------------------------------------------------------
// §3.1.2 Burstiness (Fig 4)
// ---------------------------------------------------------------------------
/// For >80% of multi-op sessions the normalized operating time is < 0.1;
/// sessions with >20 ops issue everything within 3% of the session length.
inline constexpr double kBurstyOperatingTimeQuantile = 0.80;
inline constexpr double kBurstyOperatingTimeBound = 0.10;
inline constexpr double kManyOpOperatingTimeMedian = 0.03;

// ---------------------------------------------------------------------------
// §3.1.3 Session size (Fig 5)
// ---------------------------------------------------------------------------
/// 40% of sessions contain exactly one file operation; ~10% contain > 20.
inline constexpr double kSingleOpSessionShare = 0.40;
inline constexpr double kOver20OpSessionShare = 0.10;
/// Store-only sessions: volume grows linearly at ~1.5 MB per file (Fig 5b).
inline constexpr double kStoreLinearCoefficientMB = 1.5;
/// Retrieve-only single-file sessions average ~70 MB (Fig 5c).
inline constexpr double kRetrieveSingleFileAvgMB = 70.0;

// ---------------------------------------------------------------------------
// §3.1.4 Average file size models (Fig 6, Table 2), sizes in MB
// ---------------------------------------------------------------------------
struct MixtureExpParams {
  std::array<double, 3> weights;
  std::array<double, 3> means_mb;
};
inline constexpr MixtureExpParams kStoreFileSizeParams{
    {0.91, 0.07, 0.02}, {1.5, 13.1, 77.4}};
inline constexpr MixtureExpParams kRetrieveFileSizeParams{
    {0.46, 0.26, 0.28}, {1.6, 29.8, 146.8}};

[[nodiscard]] MixtureExponential StoreFileSizeModel();     ///< Table 2 row 1
[[nodiscard]] MixtureExponential RetrieveFileSizeModel();  ///< Table 2 row 2

// ---------------------------------------------------------------------------
// §3.2.1 Usage scenarios (Fig 7, Table 3)
// ---------------------------------------------------------------------------
/// Store/retrieve volume-ratio thresholds separating the usage classes.
inline constexpr double kUploadOnlyRatio = 1e5;
inline constexpr double kDownloadOnlyRatio = 1e-5;
/// Occasional users move less than 1 MB total.
inline constexpr Bytes kOccasionalVolumeBound = FromMB(1.0);

enum class UserClass { kOccasional, kUploadOnly, kDownloadOnly, kMixed };

/// Table 3, "mobile only" column.
inline constexpr double kMobileUploadOnlyShare = 0.515;
inline constexpr double kMobileDownloadOnlyShare = 0.173;
inline constexpr double kMobileOccasionalShare = 0.239;
inline constexpr double kMobileMixedShare = 0.072;
inline constexpr double kMobileUploadOnlyStoreVolume = 0.866;
inline constexpr double kMobileDownloadOnlyRetrieveVolume = 0.845;

/// Table 3, "mobile & PC" column.
inline constexpr double kBothUploadOnlyShare = 0.537;
inline constexpr double kBothDownloadOnlyShare = 0.151;
inline constexpr double kBothOccasionalShare = 0.132;
inline constexpr double kBothMixedShare = 0.180;
inline constexpr double kBothUploadOnlyStoreVolume = 0.813;
inline constexpr double kBothDownloadOnlyRetrieveVolume = 0.665;

/// Table 3, "PC only" column.
inline constexpr double kPcUploadOnlyShare = 0.316;
inline constexpr double kPcDownloadOnlyShare = 0.172;
inline constexpr double kPcOccasionalShare = 0.341;
inline constexpr double kPcMixedShare = 0.191;
inline constexpr double kPcUploadOnlyStoreVolume = 0.748;
inline constexpr double kPcDownloadOnlyRetrieveVolume = 0.755;

// ---------------------------------------------------------------------------
// §3.2.2 User engagement (Fig 8, Fig 9)
// ---------------------------------------------------------------------------
inline constexpr std::uint64_t kDayOneActiveUsers = 233'225;
/// Roughly half of single-device users never return within the week; with
/// more than one device, fewer than 20% stay away.
inline constexpr double kSingleDeviceNoReturnShare = 0.50;
inline constexpr double kMultiDeviceNoReturnShare = 0.20;
/// ~80% of mobile-only uploaders never retrieve within the week (Fig 9);
/// mobile&PC users retrieve much sooner, especially same-day.
inline constexpr double kMobileOnlyNoRetrievalShare = 0.80;

// ---------------------------------------------------------------------------
// §3.2.3 User activity models (Fig 10)
// ---------------------------------------------------------------------------
struct SeParams {
  double c;   ///< stretch factor
  double a;   ///< slope magnitude in y^c = -a log rank + b
  double b;   ///< intercept
  double r2;  ///< published coefficient of determination
};
inline constexpr SeParams kStoreActivitySe{0.20, 0.448, 7.239, 0.999201};
inline constexpr SeParams kRetrieveActivitySe{0.15, 0.322, 4.971, 0.998964};

// ---------------------------------------------------------------------------
// §2.4 Workload overview (Fig 1)
// ---------------------------------------------------------------------------
/// Hour of the evening surge (~11 PM local).
inline constexpr int kPeakHourOfDay = 23;
/// Retrieval data volume exceeds storage volume, while stored-file count is
/// over 2× retrieved-file count (retrieved objects are much larger).
inline constexpr double kStoredToRetrievedFileCountRatio = 2.0;

// ---------------------------------------------------------------------------
// §4 Data transmission performance
// ---------------------------------------------------------------------------
inline constexpr Bytes kPaperChunkSize = kChunkSize;  // 512 KB, §2.1
/// Median per-chunk upload time (Fig 12a).
inline constexpr Seconds kMedianUploadTimeIos = 1.6;
inline constexpr Seconds kMedianUploadTimeAndroid = 4.1;
/// Servers advertise ≤ 64 KB receive window; no window scaling (Fig 13/15).
inline constexpr Bytes kServerReceiveWindow = 64 * kKiB;
/// Client-side receive windows when downloading (window scaling enabled).
inline constexpr Bytes kAndroidReceiveWindow = 4 * kMiB;
inline constexpr Bytes kIosReceiveWindow = 2 * kMiB;
/// Median RTT of chunk transfers ≈ 100 ms (Fig 14).
inline constexpr Seconds kMedianRtt = 0.100;
/// Fraction of inter-chunk idle gaps exceeding the RTO (Fig 16c):
/// Android storage ≈ 60%, iOS storage ≈ 18%.
inline constexpr double kAndroidIdleOverRtoShare = 0.60;
inline constexpr double kIosIdleOverRtoShare = 0.18;
/// Server processing time T_srv ≈ 100 ms regardless of device (Fig 16a/b).
inline constexpr Seconds kMedianServerTime = 0.100;
/// Android spends on average ~90 ms more than iOS preparing an upload chunk.
inline constexpr Seconds kAndroidExtraUploadPrep = 0.090;
/// 90th-percentile Android retrieval T_clt ≈ 1 s (one order above iOS).
inline constexpr Seconds kAndroidRetrievalP90Tclt = 1.0;

/// RTO estimate used in §4.2: RTO ≈ RTT + max(200 ms, 2·RTT).
[[nodiscard]] constexpr Seconds EstimateRto(Seconds rtt) {
  const Seconds var_term = 2.0 * rtt;
  return rtt + (var_term > 0.200 ? var_term : 0.200);
}

}  // namespace mcloud::paper
