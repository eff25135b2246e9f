// Generator calibration constants that are NOT directly printed in the paper.
//
// The paper publishes its fitted models (Table 2, Fig 3, Fig 10, Table 3);
// everything else about the generating process has to be chosen so that the
// published aggregates emerge. Each constant below documents which published
// observation pins it down. Keep this header the single place where such
// judgement calls live — the directly-published numbers stay in
// model/paper_params.h.
#pragma once

#include <array>

#include "model/paper_params.h"
#include "util/units.h"

namespace mcloud::workload::cal {

// ---------------------------------------------------------------------------
// Device mix
// ---------------------------------------------------------------------------
/// Distribution of the number of mobile devices per user. Pinned by Fig 7b /
/// Fig 8 splitting users into 1, >1, >2 device groups with meaningful mass
/// in each; most users own a single device.
inline constexpr std::array<double, 3> kMobileDeviceCountWeights = {
    0.78, 0.16, 0.06};  // 1, 2, 3 devices

/// Multi-device mobile-only users synchronize across devices, shifting the
/// class mix away from pure upload toward mixed/download (Fig 7b shows a
/// significant reduction in storage-dominated users with multiple devices).
inline constexpr double kMultiDeviceUploadShift = 0.10;  // from upload-only
inline constexpr double kMultiDeviceToDownload = 0.05;   // ... to download
// (the remainder of the shifted mass lands on the mixed class)

/// Session→device assignment for mobile&PC users: stores originate from the
/// phone (the camera is there); retrievals often happen on the PC (§3.2.2:
/// "users are more likely to sync data uploaded by mobile devices from
/// PCs").
inline constexpr double kStoreFromMobileShare = 0.78;
/// Retrieval placement is conditioned on session size: bulk pulls are the
/// PC sync client downloading a batch, while one-off retrievals are a user
/// opening a file on the phone. This is what lets the mobile trace carry
/// ~30% retrieve-only *sessions* (§3.1.1) while keeping mobile retrieved
/// *files* below half the stored files (Fig 2): the file mass of large
/// pulls lands on the PC.
inline constexpr double kRetrieveFromPcShareBulk = 0.62;   // >= 3 files
inline constexpr double kRetrieveFromPcShareSmall = 0.04;  // 1-2 files

// ---------------------------------------------------------------------------
// Per-user weekly activity (drives Fig 10 and Table 3)
// ---------------------------------------------------------------------------
/// Scale x0 of the stretched-exponential store-activity law. Derived from
/// the paper's fit: a = x0^c with a = 0.448, c = 0.2 ⇒ x0 = 0.448^5 ≈ 0.018.
/// Sampling X ~ SE(x0, c) conditioned on X >= 1 preserves the linearity of
/// the rank plot in log–y^c space with the *same* slope a, so the report's
/// Fig 10 refit (the `validate` section Fig 10) recovers the published a
/// and c (b depends on population size).
inline constexpr double kStoreActivityX0 = 0.01806;
inline constexpr double kStoreActivityC = paper::kStoreActivitySe.c;

/// Retrieve activity: a = 0.322, c = 0.15 ⇒ x0 = 0.322^(1/0.15) ≈ 5.2e-4.
inline constexpr double kRetrieveActivityX0 = 5.24e-4;
inline constexpr double kRetrieveActivityC = paper::kRetrieveActivitySe.c;

/// Mixed-usage users retrieve less than download-only users; this scale
/// factor on x0 makes download-only users carry ~84.5% of retrieval volume
/// (Table 3) while mixed users carry the rest.
inline constexpr double kMixedRetrieveScale = 1.0;

/// Occasional-*intent* users move small objects; operation counts follow the
/// exact same stretched-exponential laws as every other class, so the
/// population's Fig 10 rank curve remains one clean SE law (any
/// class-specific count distribution measurably bends the curve and biases
/// the refit of the stretch factor). Their per-session average payload is a
/// *rejection-truncated draw from the Table 2 µ1 = 1.5 MB exponential* on
/// [kOccasionalMinFileMB, kOccasionalMaxFileMB]: below the cut-off their
/// density is proportional to the main component's, so the Fig 6 EM refit
/// blends them into µ1 instead of fabricating a small-payload mode. Users
/// whose sampled count × payload exceeds 1 MB simply *classify* as
/// upload/download users in the measured Table 3, and the input shares below
/// pre-compensate for that spillover.
inline constexpr double kOccasionalMinFileMB = 0.05;
inline constexpr double kOccasionalMaxFileMB = 0.90;
/// Weekly volume budget an occasional user aims under; the per-file cap is
/// kOccasionalBudgetMB / (op budget), clamped to the range above.
inline constexpr double kOccasionalBudgetMB = 1.2;
/// Probability an occasional-intent user also tries retrieval.
inline constexpr double kOccasionalRetrieveProb = 0.10;

/// Input (intent) class shares per device profile, ordered
/// {occasional, upload, download} (mixed = remainder). These differ from the
/// Table 3 *measured* targets because a large minority of occasional-intent
/// users spill over the 1 MB volume boundary into the upload/download
/// classes; the inputs are inflated accordingly so the measured shares land
/// on Table 3.
inline constexpr std::array<double, 3> kInputSharesMobileOnly = {
    0.205, 0.580, 0.165};
inline constexpr std::array<double, 3> kInputSharesMobilePc = {
    0.200, 0.550, 0.130};
inline constexpr std::array<double, 3> kInputSharesPcOnly = {
    0.420, 0.250, 0.160};

// ---------------------------------------------------------------------------
// Sessions (drives Fig 4, Fig 5, §3.1)
// ---------------------------------------------------------------------------
/// File operations per session: mixture chosen so that ~40% of sessions have
/// exactly one operation and ~10% exceed 20 (Fig 5a).
///   w.p. kSingleOpShare            -> 1 op
///   w.p. kFewOpsShare              -> 2 + Geometric(kFewOpsMean) ops
///   w.p. kManyOpsShare             -> 20 + Exponential(kManyOpsTailMean)
inline constexpr double kSingleOpShare = 0.26;
inline constexpr double kFewOpsShare = 0.61;
inline constexpr double kManyOpsShare = 0.13;
inline constexpr double kFewOpsMean = 4.0;
inline constexpr double kManyOpsTailMean = 18.0;

/// Retrieval sessions have fewer operations on average (Fig 5a retrieve-only
/// curve sits above store-only at low counts).
inline constexpr double kRetrieveSingleOpShare = 0.88;
inline constexpr double kRetrieveFewOpsShare = 0.10;
inline constexpr double kRetrieveManyOpsShare = 0.02;

/// Probability that a mixed-class user's session interleaves both store and
/// retrieve operations. Pinned by the 2% share of mixed sessions (§3.1.1)
/// given ~7-18% mixed-class users.
inline constexpr double kMixedSessionProbability = 0.36;

/// Retrieve-session file-size component weights conditioned on the number of
/// files n in the session (Table 2 retrieve row is the session-weighted
/// aggregate; Fig 5c pins the negative size–count correlation: single-file
/// sessions average ~70 MB while many-file sessions sync small items).
/// Rows: n <= 2, 3 <= n <= 9, n >= 10. Columns: Table 2 components 1..3.
inline constexpr std::array<std::array<double, 3>, 3>
    kRetrieveSizeWeightsByCount = {{
        {0.34, 0.29, 0.37},
        {0.55, 0.30, 0.15},
        {0.85, 0.13, 0.02},
    }};

/// Store-session size-component weights, conditioned on op count.
/// Multi-file store sessions are photo batches and draw almost exclusively
/// from the 1.5 MB component — that is what keeps the *average* session
/// volume growing at ~1.5-2 MB per file (Fig 5b). Single-file sessions
/// carry the video tail. The weights solve so the session-weighted
/// aggregate still matches Table 2's store row (0.91/0.07/0.02) given the
/// ~48% single-op session share.
inline constexpr std::size_t kBatchOpsThreshold = 10;  // many-ops base
inline constexpr std::array<double, 3> kStoreSizeWeightsSingle = {
    0.845, 0.119, 0.036};  // 1 file
inline constexpr std::array<double, 3> kStoreSizeWeightsMulti = {
    0.970, 0.025, 0.005};  // >= 2 files

/// Within a session all files share the session's size class; individual
/// file sizes jitter around the class draw by this lognormal sigma, so a
/// photo-backup session contains similar-but-not-identical JPEG sizes.
inline constexpr double kFileSizeJitterSigma = 0.20;

/// Intra-session operation gaps (log10 seconds). Most gaps are short
/// multi-select gaps — the app issues the operations of one user gesture
/// back to back — with a minority of longer think-time gaps; batch sessions
/// (> 10 ops) issue requests programmatically. Together these reproduce the
/// Fig 4 burstiness (80% of multi-op sessions spend < 10% of the session
/// operating; > 20-op sessions < 3%) while keeping the Fig 3 intra-session
/// mixture component in the seconds range. Known deviation: the paper's
/// intra-session component mean is ~10 s; at 1-second log resolution,
/// gaps that long are incompatible with Fig 4's burstiness for short
/// sessions, so this generator sits at the ~1-2 s end (see EXPERIMENTS.md).
inline constexpr double kQuickGapShare = 0.93;
inline constexpr double kQuickGapMeanLog10 = -0.50;  // ~0.32 s
inline constexpr double kQuickGapStddevLog10 = 0.35;
inline constexpr double kThinkGapMeanLog10 = 1.55;   // ~35 s
inline constexpr double kThinkGapStddevLog10 = 0.50;
inline constexpr std::size_t kBatchGapOpsThreshold = 10;
inline constexpr double kBatchGapMeanLog10 = -1.20;  // ~0.06 s
inline constexpr double kBatchGapStddevLog10 = 0.30;
/// Truncation below τ so an in-session gap can never split the session.
inline constexpr Seconds kMaxIntraSessionGap = 0.5 * kHour;

// ---------------------------------------------------------------------------
// Engagement (drives Fig 8, Fig 9)
// ---------------------------------------------------------------------------
/// P(engaged) by profile: single-device ≈ 50% never return in the week,
/// multi-device < 20%, mobile&PC even fewer (Fig 8).
inline constexpr double kEngagedSingleDevice = 0.58;
inline constexpr double kEngagedMultiDevice = 0.82;
inline constexpr double kEngagedMobilePc = 0.86;
/// P(an engaged user is active on any given later day).
inline constexpr double kEngagedDailyActive = 0.62;
/// Mild decay of daily-active probability per elapsed day.
inline constexpr double kEngagedDailyDecay = 0.97;

/// Mobile&PC users sync fresh uploads from their PC: probability that a
/// mobile store session triggers a same-day PC retrieval session (Fig 9's
/// elevated day-0 retrieval for mobile&PC users).
inline constexpr double kPcSyncAfterUpload = 0.12;


// ---------------------------------------------------------------------------
// Diurnal shape (drives Fig 1)
// ---------------------------------------------------------------------------
/// Relative session-start weight per hour of day. Shape: quiet early
/// morning, daytime plateau, evening ramp to the 11 PM surge when devices
/// reach home WiFi (§2.4), sharp fall after midnight.
inline constexpr std::array<double, 24> kHourOfDayWeights = {
    1.8, 0.9, 0.5, 0.3, 0.25, 0.3,   // 00-05
    0.6, 1.2, 2.0, 2.6, 2.9, 3.1,    // 06-11
    3.3, 3.0, 2.8, 2.7, 2.8, 3.0,    // 12-17
    3.4, 3.8, 4.3, 5.0, 6.2, 7.5};   // 18-23

// ---------------------------------------------------------------------------
// Fast-path record timing (fields of Table 1 in generated logs)
// ---------------------------------------------------------------------------
/// Per-connection RTT: lognormal with median 100 ms (Fig 14) and a heavy
/// tail reaching seconds (mobile networks).
inline constexpr double kRttMedian = paper::kMedianRtt;
inline constexpr double kRttSigma = 0.55;

/// T_srv: lognormal, median ~100 ms regardless of device type (Fig 16a/b).
inline constexpr double kTsrvMedian = paper::kMedianServerTime;
inline constexpr double kTsrvSigma = 0.45;

/// Fraction of requests arriving via HTTP proxies (excluded from §4).
inline constexpr double kProxiedShare = 0.06;

/// Effective client uplink/downlink application throughput used by the fast
/// log emitter to spread chunk requests over a session (device-conditioned;
/// the §4 benches use the real TCP simulator instead). Bytes per second.
inline constexpr double kUplinkBps_Ios = 340e3;
inline constexpr double kUplinkBps_Android = 130e3;
inline constexpr double kDownlinkBps_Ios = 520e3;
inline constexpr double kDownlinkBps_Android = 300e3;
inline constexpr double kLinkBps_Pc = 900e3;

}  // namespace mcloud::workload::cal
