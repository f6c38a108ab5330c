// Banking across three autonomous banks with failure injection.
//
// Each bank runs its own pre-existing database system (no prepared state at
// the local interface). Global interbank transfers run through the 2PC
// Agent method; one bank's DBMS keeps unilaterally aborting prepared
// subtransactions (think: log buffer overflow, as the paper says of 1992
// INGRES), and the agents recover by resubmission while the certifier keeps
// the overall history view serializable.
//
//   build/examples/banking_transfer

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"

using namespace hermes;  // NOLINT — example brevity

namespace {

constexpr int kBanks = 3;
constexpr int kAccountsPerBank = 20;
constexpr int kTransfers = 60;

}  // namespace

int main() {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = kBanks;
  core::Mdbs mdbs(config, &loop);

  const db::TableId accounts = *mdbs.CreateTableEverywhere("accounts");
  for (SiteId bank = 0; bank < kBanks; ++bank) {
    for (int64_t acc = 0; acc < kAccountsPerBank; ++acc) {
      mdbs.LoadRow(bank, accounts, acc,
                   db::Row{{"balance", db::Value(int64_t{1000})}});
    }
  }

  // Bank 1's DBMS is flaky: it unilaterally aborts ~40% of prepared
  // subtransactions a moment after sending READY.
  Rng failure_rng(7);
  mdbs.agent(1)->set_prepared_hook(
      [&](const TxnId&, LtmTxnHandle handle) {
        if (!failure_rng.NextBool(0.4)) return;
        loop.ScheduleAfter(
            static_cast<sim::Duration>(failure_rng.NextUint64(5000)),
            [&mdbs, handle]() {
              (void)mdbs.ltm(1)->InjectUnilateralAbort(handle);
            });
      });

  // Issue random interbank transfers, sequentially per client, four
  // clients in parallel.
  Rng workload_rng(42);
  int submitted = 0, committed = 0, aborted = 0;
  std::function<void()> next_transfer = [&]() {
    if (submitted >= kTransfers) return;
    ++submitted;
    const SiteId from = static_cast<SiteId>(workload_rng.NextUint64(kBanks));
    SiteId to = static_cast<SiteId>(workload_rng.NextUint64(kBanks));
    if (to == from) to = (to + 1) % kBanks;
    const int64_t src =
        static_cast<int64_t>(workload_rng.NextUint64(kAccountsPerBank));
    const int64_t dst =
        static_cast<int64_t>(workload_rng.NextUint64(kAccountsPerBank));
    const int64_t amount = workload_rng.NextInt(1, 50);

    core::GlobalTxnSpec spec;
    spec.steps.push_back(
        {from, db::MakeAddKey(accounts, src, "balance", -amount)});
    spec.steps.push_back(
        {to, db::MakeAddKey(accounts, dst, "balance", amount)});
    mdbs.Submit(spec, [&](const core::GlobalTxnResult& result) {
      if (result.status.ok()) {
        ++committed;
      } else {
        ++aborted;
      }
      next_transfer();
    });
  };
  for (int client = 0; client < 4; ++client) {
    loop.ScheduleAfter(0, [&]() { next_transfer(); });
  }
  loop.Run();

  // Conservation: total money must be exactly the initial amount — every
  // resubmitted debit/credit applied exactly once.
  int64_t total = 0;
  for (SiteId bank = 0; bank < kBanks; ++bank) {
    for (const auto& [key, entry] :
         mdbs.storage(bank)->GetTable(accounts)->entries()) {
      if (entry.live()) {
        total += std::get<int64_t>(*entry.row->Get("balance"));
      }
    }
  }
  const int64_t expected = int64_t{1000} * kBanks * kAccountsPerBank;

  const auto& m = mdbs.metrics();
  std::printf("transfers: %d committed, %d aborted (of %d)\n", committed,
              aborted, kTransfers);
  std::printf("unilateral aborts injected at bank 1: %lld, "
              "resubmissions performed: %lld\n",
              static_cast<long long>(mdbs.ltm(1)->stats().injected_aborts),
              static_cast<long long>(m.resubmissions));
  std::printf("certification refusals: interval=%lld extension=%lld "
              "dead=%lld, commit retries=%lld\n",
              static_cast<long long>(m.refuse_interval),
              static_cast<long long>(m.refuse_extension),
              static_cast<long long>(m.refuse_dead),
              static_cast<long long>(m.commit_cert_retries));
  std::printf("money conservation: total=%lld expected=%lld %s\n",
              static_cast<long long>(total),
              static_cast<long long>(expected),
              total == expected ? "OK" : "VIOLATED");

  const auto committed_ops =
      history::CommittedProjection(mdbs.recorder().ops());
  std::printf("commit order graph acyclic: %s\n",
              history::CommitGraphAcyclic(committed_ops) ? "yes" : "NO");
  return total == expected ? 0 : 1;
}
