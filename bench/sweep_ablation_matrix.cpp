// E18 — certification ablation matrix: {SN, CSN} ordering x {full-2PC,
// short-commit} x {certification on, off}.
//
// Every cell runs the same failure-free, clock-skewed workload (40% of the
// global transactions single-site, 30% read-only) and differs only in the
// certification scheme and fast-path knobs. The matrix isolates two claims
// developed in docs/DESIGN-SPACE.md:
//
//  * Unnecessary refusals. A failure-free run cannot contain a
//    non-serializable execution (every LTM is rigorous), so *every*
//    certification abort in this sweep is unnecessary by construction.
//    The SN scheme's submit-time numbers disagree with commit order under
//    clock skew and refuse prepares "from the past"; CSN's decision-time
//    numbers cannot, so its unnecessary-refusal rate must be exactly zero.
//
//  * Short-commit latency. Skipping the prepare round for single-site
//    transactions (1PC) and the decision round for read-only participants
//    must strictly reduce the mean commit path (Commit to the last ACK) of
//    committed single-site transactions in every {certifier,
//    certification} pairing — the sweep exits nonzero otherwise. Client
//    latency ties on single-site transactions: 2PC reports at the decision
//    after PREPARE and vote, 1PC at the ACK after 1PC-COMMIT, two message
//    delays each.
//
// The certifier hot-path cost (`cert ns/chk`) is a wall-clock micro-loop
// over CertifyPrepare against a 64-entry prepared set, measured once per
// scheme outside the simulation: virtual time cannot see the data
// structure's real cost, and keeping the wall clock out of the simulated
// runs keeps their fingerprints deterministic. Every run is checked by the
// atomicity, order-invariant and serializability oracles, and a
// determinism sub-grid re-executes one traced run per cell serially and on
// 2 workers (fingerprints must match byte for byte).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "cert/certifier.h"
#include "runner/runner.h"

namespace hermes::bench {

namespace {

struct MatrixVariant {
  const char* cell;
  cert::CertifierKind certifier;
  bool short_commit;
  core::CertPolicy policy;
};

runner::RunSpec MatrixSpec(const MatrixVariant& v, uint64_t seed, int txns) {
  runner::RunSpec spec;
  spec.cell = v.cell;
  spec.config.seed = seed;
  spec.config.num_sites = 4;
  spec.config.rows_per_table = 64;
  spec.config.global_clients = 6;
  spec.config.target_global_txns = txns;
  spec.config.sites_per_global_txn = 2;
  spec.config.single_site_fraction = 0.4;
  spec.config.read_only_fraction = 0.3;
  // Failure-free but skewed: ±2ms submit-time clocks are what make the SN
  // extension refuse (CSN assigns at decision time and cannot).
  spec.config.clock_skew = 2 * sim::kMillisecond;
  spec.config.certifier = v.certifier;
  spec.config.short_commit = v.short_commit;
  spec.config.policy = v.policy;
  return spec;
}

// Wall-clock nanoseconds of one CertifyPrepare against 64 prepared peers.
double MeasureCertNsPerCheck(cert::CertifierKind kind) {
  auto certifier = cert::MakeCertifier(kind, core::CertPolicy::kFull);
  for (int i = 0; i < 64; ++i) {
    certifier->OnPrepared(TxnId::MakeGlobal(0, i),
                          core::AliveInterval{i * 10, i * 10 + 1000},
                          core::SerialNumber{i, 0, 0});
  }
  const core::AliveInterval candidate{500, 600};
  const core::SerialNumber sn{100, 1, 0};
  constexpr int kIters = 200000;
  int admitted = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    admitted += certifier
                    ->CertifyPrepare(sn, candidate, /*want_detail=*/false)
                    .admit
                    ? 1
                    : 0;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // `admitted` keeps the loop observable; the verdict itself is irrelevant.
  if (admitted < 0) std::printf("unreachable\n");
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         kIters;
}

}  // namespace

int RunAblationMatrixSweep(const SweepArgs& args) {
  const int num_seeds = args.quick ? 2 : 5;
  const int txns = args.quick ? 60 : 150;
  const std::vector<MatrixVariant> variants = {
      {"sn/2pc/cert", cert::CertifierKind::kSn, false,
       core::CertPolicy::kFull},
      {"sn/2pc/off", cert::CertifierKind::kSn, false,
       core::CertPolicy::kNone},
      {"sn/short/cert", cert::CertifierKind::kSn, true,
       core::CertPolicy::kFull},
      {"sn/short/off", cert::CertifierKind::kSn, true,
       core::CertPolicy::kNone},
      {"csn/2pc/cert", cert::CertifierKind::kCsn, false,
       core::CertPolicy::kFull},
      {"csn/2pc/off", cert::CertifierKind::kCsn, false,
       core::CertPolicy::kNone},
      {"csn/short/cert", cert::CertifierKind::kCsn, true,
       core::CertPolicy::kFull},
      {"csn/short/off", cert::CertifierKind::kCsn, true,
       core::CertPolicy::kNone},
  };
  std::printf(
      "E18 — certification ablation matrix: {SN,CSN} x {2PC,short-commit} "
      "x {cert,off}\n(4 sites, 6 global clients, ±2ms clock skew, "
      "failure-free, 40%% single-site / 30%% read-only, %d seeds per cell, "
      "atomicity + serializability checked per run%s)\n\n",
      num_seeds, args.quick ? ", quick" : "");

  std::vector<runner::RunSpec> specs;
  std::string base_config;
  for (const MatrixVariant& v : variants) {
    for (int s = 0; s < num_seeds; ++s) {
      specs.push_back(MatrixSpec(v, 9300 + static_cast<uint64_t>(s), txns));
      // Trace one seed per cell for the critical-path phase stats (which
      // now fold the short_commit / csn_assign span notes).
      specs.back().capture_trace = s == 0;
      if (base_config.empty()) base_config = specs.back().config.ToString();
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  const double sn_ns = MeasureCertNsPerCheck(cert::CertifierKind::kSn);
  const double csn_ns = MeasureCertNsPerCheck(cert::CertifierKind::kCsn);

  TablePrinter table({"cell", "committed", "aborted", "cert abrt",
                      "unnec rfsl", "1pc", "ro fast", "csn", "ss lat us",
                      "cert ns/chk", "p95 ms", "tput", "history"});
  bool all_ok = true;
  std::vector<double> ss_latency(variants.size(), 0.0);
  for (size_t c = 0; c < variants.size(); ++c) {
    runner::CellAggregate& cell = agg.Cell(variants[c].cell);
    const int64_t committed = static_cast<int64_t>(cell.Sum("committed"));
    const int64_t aborted = static_cast<int64_t>(cell.Sum("aborted"));
    const int64_t cert_aborted =
        static_cast<int64_t>(cell.Sum("aborted_cert"));
    // Failure-free + rigorous LTMs: every certification abort refused a
    // serializable execution, so the whole cert-abort mass is unnecessary.
    const double refusal_unnecessary =
        committed + aborted > 0
            ? static_cast<double>(cert_aborted) /
                  static_cast<double>(committed + aborted)
            : 0.0;
    const int64_t ss_committed =
        static_cast<int64_t>(cell.Sum("single_site_committed"));
    const double ss_lat_us =
        ss_committed > 0 ? cell.Sum("single_site_lat_total_us") /
                               static_cast<double>(ss_committed)
                         : 0.0;
    ss_latency[c] = ss_lat_us;
    const double cert_ns =
        variants[c].policy == core::CertPolicy::kNone
            ? 0.0
            : (variants[c].certifier == cert::CertifierKind::kSn ? sn_ns
                                                                 : csn_ns);
    const int64_t short_commits =
        static_cast<int64_t>(cell.Sum("short_commits_1pc") +
                             cell.Sum("short_commits_readonly"));
    // Derived cell stats for the artifact (docs/FORMATS.md).
    cell.Add("refusal_unnecessary", refusal_unnecessary);
    cell.Add("cert_ns_per_check", cert_ns);
    cell.Add("short_commits", static_cast<double>(short_commits));

    bool ok = true;
    // CG(C(H)) acyclicity is the paper's *sufficient* condition, enforced
    // by commit-order certification; with certification off — or with
    // read-only participants committing at vote time — the commit order
    // may legally differ across sites while H stays view serializable.
    // Assert it only where the enforcing mechanism is actually on.
    const bool expect_cg_acyclic =
        variants[c].policy == core::CertPolicy::kFull &&
        !variants[c].short_commit;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].cell != variants[c].cell) continue;
      const workload::RunResult& r = (*outputs)[i].result;
      const bool run_ok = r.GuaranteesHold(expect_cg_acyclic);
      if (!run_ok) {
        std::fprintf(
            stderr,
            "oracle: %s seed=%llu checked=%d atomic=%d cg=%d replay=%d "
            "order=%d verdict=%d %s%s%s\n",
            specs[i].cell.c_str(),
            static_cast<unsigned long long>(specs[i].config.seed),
            r.history_checked, r.atomicity_ok, r.commit_graph_acyclic,
            r.replay_consistent, r.order_invariant_ok,
            static_cast<int>(r.verdict), r.atomicity_error.c_str(),
            r.order_invariant_error.c_str(), r.verdict_detail.c_str());
      }
      ok = ok && run_ok;
    }
    // Failure-free termination: every submitted transaction decided.
    ok = ok &&
         committed + aborted == static_cast<int64_t>(num_seeds) * txns;
    // The headline refusal claim: decision-time numbering never refuses in
    // a failure-free run, submit-time numbering under skew does.
    if (variants[c].certifier == cert::CertifierKind::kCsn) {
      ok = ok && cert_aborted == 0;
    }
    all_ok = all_ok && ok;
    table.AddRow(variants[c].cell, committed, aborted, cert_aborted,
                 Fixed2(refusal_unnecessary * 100.0),
                 static_cast<int64_t>(cell.Sum("short_commits_1pc")),
                 static_cast<int64_t>(cell.Sum("short_commits_readonly")),
                 static_cast<int64_t>(cell.Sum("csn_assigned")),
                 Fixed2(ss_lat_us), Fixed2(cert_ns),
                 cell.latency.PercentileMs(95), Fixed2(cell.Sum("tput")),
                 ok ? "ATOMIC+VSR" : "VIOLATED");
  }

  // Short-commit acceptance gate: in every {certifier, certification}
  // pairing the short-commit cell's mean committed single-site commit path
  // to the last ACK must be *strictly* below its full-2PC sibling's.
  bool short_faster = true;
  for (size_t c = 0; c < variants.size(); ++c) {
    if (!variants[c].short_commit) continue;
    for (size_t full = 0; full < variants.size(); ++full) {
      if (variants[full].short_commit ||
          variants[full].certifier != variants[c].certifier ||
          variants[full].policy != variants[c].policy) {
        continue;
      }
      if (!(ss_latency[c] < ss_latency[full])) {
        short_faster = false;
        std::fprintf(stderr,
                     "short-commit gate: %s (%.2f us) not strictly below "
                     "%s (%.2f us)\n",
                     variants[c].cell, ss_latency[c], variants[full].cell,
                     ss_latency[full]);
      }
    }
  }
  all_ok = all_ok && short_faster;

  // Determinism sub-grid: the first run of every cell, traced, serially
  // and on 2 workers — fingerprints must match byte for byte.
  std::vector<runner::RunSpec> det;
  for (size_t c = 0; c < variants.size(); ++c) {
    runner::RunSpec spec = specs[c * static_cast<size_t>(num_seeds)];
    spec.capture_trace = true;
    det.push_back(std::move(spec));
  }
  Result<DeterminismRuns> det_runs = RunDeterminismGrid(det, "ablation");
  if (!det_runs.ok()) return 2;
  all_ok = all_ok && det_runs->identical;

  // Export the csn/short/cert traced run for tmstat / Perfetto (the
  // short_commit and csn_assign span notes).
  const size_t pick = det.size() > 6 ? 6 : det.size() - 1;
  const bool exported =
      args.trace_out.empty() ||
      WriteTraceArtifacts(args.trace_out, det_runs->serial[pick]);

  const int rc = FinishSweep("E18_ablation", base_config, 9300,
                             args.workers, table, agg);
  std::printf(
      "\nExpected shape: under ±2ms skew the SN cells refuse (and abort) a\n"
      "nonzero share of perfectly serializable prepares, the CSN cells\n"
      "refuse none (unnec rfsl = 0). Short-commit strictly reduces the\n"
      "committed single-site commit path to the last ACK in every\n"
      "pairing: %s.\n"
      "Determinism sub-grid: serial == 2 workers, %s.\n",
      short_faster ? "HOLDS" : "VIOLATED",
      det_runs->identical ? "byte-identical" : "DIVERGED");
  if (!all_ok || !exported) return 1;
  return rc;
}

}  // namespace hermes::bench
