// Scenario-lab tests (DESIGN.md §13): spec grammar round-trips, strict
// rejection of malformed specs with line/field-carrying errors, the
// paper2016-equals-defaults fingerprint identity, and the negative-control
// conformance run (targets contradicting parameters must fail on exactly
// the contradicted checks).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "scenario/conformance.h"
#include "scenario/workload_spec.h"
#include "trace/partitioned_trace.h"
#include "util/error.h"
#include "validate/validator.h"

namespace mcloud {
namespace {

// ---------------------------------------------------------------------------
// Round-trip goldens.

TEST(SpecText, DefaultSpecRoundTripsExactly) {
  scenario::WorkloadSpec spec;
  spec.name = "roundtrip";
  spec.description = "default world";
  const std::string text = scenario::ToText(spec);
  const scenario::WorkloadSpec back = scenario::ParseSpec(text, "<inline>");
  // Canonical form is a fixed point: re-emitting the parsed spec reproduces
  // the text byte for byte (doubles use round-trip precision).
  EXPECT_EQ(scenario::ToText(back), text);
  EXPECT_EQ(back.name, "roundtrip");
  EXPECT_EQ(back.mobile_users, spec.mobile_users);
  EXPECT_DOUBLE_EQ(back.android_share, spec.android_share);
  EXPECT_EQ(back.model.hour_weights, spec.model.hour_weights);
}

TEST(SpecText, ShippedSpecsParseAndRoundTrip) {
  const auto names = scenario::ListSpecs();
  ASSERT_GE(names.size(), 4u);
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const scenario::WorkloadSpec spec = scenario::LoadSpec(name);
    EXPECT_EQ(spec.name, name);  // file name matches declared name
    const std::string canon = scenario::ToText(spec);
    const scenario::WorkloadSpec back = scenario::ParseSpec(canon, name);
    EXPECT_EQ(scenario::ToText(back), canon);
  }
}

TEST(SpecText, Paper2016DeclaresThePaperWorld) {
  const scenario::WorkloadSpec spec = scenario::LoadSpec("paper2016");
  EXPECT_EQ(spec.mobile_users, 20000u);
  // users/3 at the validate harness's default scale — the explicit value of
  // the legacy pc_users derivation (see ValidateOptions::kPcUsersAuto).
  EXPECT_EQ(spec.pc_only_users, 6666u);
  EXPECT_DOUBLE_EQ(spec.android_share, 0.784);
  // The spec's model must be byte-for-byte the default calibration: a
  // default-constructed ModelParams emits identical canonical text.
  scenario::WorkloadSpec defaults;
  defaults.name = spec.name;
  defaults.description = spec.description;
  defaults.pc_only_users = spec.pc_only_users;
  defaults.targets = spec.targets;
  EXPECT_EQ(scenario::ToText(spec), scenario::ToText(defaults));
  // Targets carry the slacks that moved here from validate/tolerance.h.
  EXPECT_DOUBLE_EQ(spec.targets.session_share_slack,
                   scenario::kDefaultSessionShareSlack);
  EXPECT_DOUBLE_EQ(spec.targets.mixed_share_slack,
                   scenario::kDefaultMixedShareSlack);
}

// ---------------------------------------------------------------------------
// Malformed specs: every rejection carries source:line: [section].key.

void ExpectParseError(const std::string& text, const std::string& where,
                      const std::string& message_piece) {
  try {
    (void)scenario::ParseSpec(text, "<inline>");
    FAIL() << "expected ParseError for:\n" << text;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << "error `" << e.what() << "` lacks location `" << where << "`";
    EXPECT_NE(std::string(e.what()).find(message_piece), std::string::npos)
        << "error `" << e.what() << "` lacks `" << message_piece << "`";
  }
}

TEST(SpecErrors, UnknownKey) {
  ExpectParseError("name = \"x\"\n[population]\nmobile_userz = 5\n",
                   "<inline>:3: [population].mobile_userz", "unknown key");
}

TEST(SpecErrors, UnknownSection) {
  ExpectParseError("name = \"x\"\n[bogus]\n", "<inline>:2: [bogus]",
                   "unknown section");
}

TEST(SpecErrors, OutOfRangeShare) {
  ExpectParseError("name = \"x\"\n[population]\nandroid_share = 1.5\n",
                   "<inline>:3: [population].android_share", "out of range");
}

TEST(SpecErrors, MixtureWeightsMustSumToOne) {
  ExpectParseError(
      "name = \"x\"\n[store_size]\nweights = [0.5, 0.2, 0.2]\n",
      "<inline>:3: [store_size].weights", "weights sum to");
}

TEST(SpecErrors, WrongArity) {
  ExpectParseError("name = \"x\"\n[store_size]\nweights = [0.5, 0.5]\n",
                   "<inline>:3: [store_size].weights",
                   "expected 3 elements");
}

TEST(SpecErrors, DuplicateKey) {
  ExpectParseError(
      "name = \"x\"\n[population]\nmobile_users = 5\nmobile_users = 6\n",
      "<inline>:4: [population].mobile_users", "duplicate key");
}

TEST(SpecErrors, ClassSharesMayNotExceedOne) {
  ExpectParseError(
      "name = \"x\"\n[classes]\nmobile_only = [0.5, 0.4, 0.3]\n",
      "<inline>:3: [classes].mobile_only", "exceeding 1");
}

TEST(SpecErrors, SessionSharePairExceedsOne) {
  ExpectParseError(
      "name = \"x\"\n[sessions]\nsingle_op_share = 0.7\n"
      "few_ops_share = 0.5\n",
      "<inline>:4: [sessions].few_ops_share", "exceeding 1");
}

TEST(SpecErrors, MissingName) {
  ExpectParseError("[population]\nmobile_users = 5\n", "<inline>",
                   "does not declare a name");
}

TEST(SpecErrors, UnknownSpecNameListsAvailable) {
  try {
    (void)scenario::LoadSpec("no-such-spec");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("paper2016"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// paper2016 == defaults: the spec compiles into a validation run whose
// manifest fingerprint is byte-identical to today's default run, at more
// than one thread count.

TEST(SpecIdentity, Paper2016ReproducesDefaultValidateFingerprint) {
  const scenario::WorkloadSpec spec = scenario::LoadSpec("paper2016");
  std::uint64_t default_fp = 0;
  for (const int threads : {1, 3}) {
    validate::ValidateOptions defaults;
    defaults.users = 4000;
    defaults.threads = threads;
    const validate::ValidationRun base = validate::RunValidation(defaults);

    validate::ValidateOptions from_spec;
    from_spec.users = 4000;
    from_spec.threads = threads;
    from_spec.pc_users =
        spec.pc_only_users * from_spec.users / spec.mobile_users;
    from_spec.model = spec.model;
    const validate::ValidationRun run = validate::RunValidation(from_spec);

    const std::uint64_t fp = validate::ManifestFingerprint(base);
    EXPECT_EQ(validate::ManifestFingerprint(run), fp)
        << "spec-compiled run diverges from defaults at threads=" << threads;
    if (default_fp == 0) default_fp = fp;
    EXPECT_EQ(fp, default_fp) << "fingerprint varies with threads";
  }
}

// ---------------------------------------------------------------------------
// Negative control: a spec whose declared targets contradict its own
// parameters must fail conformance on exactly the contradicted checks.

TEST(Conformance, NegativeControlFailsExactlyTheContradictedChecks) {
  const scenario::WorkloadSpec spec = scenario::ParseSpec(
      "name = \"negative-control\"\n"
      "description = \"paper parameters, contradictory targets\"\n"
      "[targets]\n"
      "store_share = 0.2\n"      // world measures ~0.70
      "retrieve_share = 0.75\n"  // world measures ~0.29
      "mixed_share = 0.019\n"    // correct: must still pass
      "\n",
      "<negative-control>");
  scenario::ConformanceOptions opts;
  opts.users_override = 2000;
  const scenario::ConformanceRun run = scenario::RunConformance(spec, opts);
  ASSERT_EQ(run.outcomes.size(), 3u);
  EXPECT_FALSE(run.AllPassed());
  EXPECT_EQ(run.outcomes[0].id, "target_store_share");
  EXPECT_FALSE(run.outcomes[0].passed);
  EXPECT_EQ(run.outcomes[1].id, "target_retrieve_share");
  EXPECT_FALSE(run.outcomes[1].passed);
  EXPECT_EQ(run.outcomes[2].id, "target_mixed_share");
  EXPECT_TRUE(run.outcomes[2].passed);
}

// Conformance itself is deterministic: same spec, same seed, any thread
// count — same report fingerprint and check statistics.
TEST(Conformance, ThreadInvariantFingerprint) {
  const scenario::WorkloadSpec spec = scenario::LoadSpec("paper2016");
  scenario::ConformanceOptions opts;
  opts.users_override = 1500;
  opts.threads = 1;
  const auto a = scenario::RunConformance(spec, opts);
  opts.threads = 4;
  const auto b = scenario::RunConformance(spec, opts);
  EXPECT_EQ(a.report_fingerprint, b.report_fingerprint);
  EXPECT_EQ(scenario::ToJson(a), scenario::ToJson(b));
}

// The memory budget is execution strategy, not sample identity: the
// default budget (one slice at this scale) and 64 MB (several) give the
// same report, bit for bit. This is what lets a spec declare a paper-scale
// population and still be conformance-checked. The spill dir does not
// exist yet: RunConformance creates it, parents included, as validate
// does.
TEST(Conformance, SameReportAtEveryBudget) {
  const scenario::WorkloadSpec spec =
      scenario::LoadSpec("flash-crowd-restore");
  scenario::ConformanceOptions opts;
  opts.users_override = 1200;
  const auto one_slice = scenario::RunConformance(spec, opts);
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "mcloud-spec-budget";
  std::filesystem::remove_all(root);
  opts.max_memory_mb = 64;
  opts.spill_dir = (root / "nested" / "spill").string();
  const auto small = scenario::RunConformance(spec, opts);
  EXPECT_GT(PartitionedTrace::Open(opts.spill_dir).groups().size(), 1u);
  std::filesystem::remove_all(root);
  EXPECT_EQ(small.report_fingerprint, one_slice.report_fingerprint);
  EXPECT_EQ(scenario::ToJson(small), scenario::ToJson(one_slice));
}

// Conformance spills under its memory budget, as generate and validate
// do: 64 MB cuts the trace into more run files than 2048 MB, and the
// report does not move.
TEST(Conformance, SpillFollowsTheBudget) {
  const scenario::WorkloadSpec spec = scenario::LoadSpec("paper2016");
  scenario::ConformanceOptions opts;
  opts.users_override = 2000;
  std::size_t run_files[2] = {};
  std::uint64_t fingerprints[2] = {};
  const std::size_t budgets_mb[2] = {64, 2048};
  for (int i = 0; i < 2; ++i) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("mcloud-spec-budget-" + std::to_string(budgets_mb[i]));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    opts.spill_dir = dir.string();
    opts.max_memory_mb = budgets_mb[i];
    fingerprints[i] = scenario::RunConformance(spec, opts).report_fingerprint;
    run_files[i] = PartitionedTrace::Open(dir).run_count();
    std::filesystem::remove_all(dir);
  }
  EXPECT_GT(run_files[0], run_files[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

}  // namespace
}  // namespace mcloud
