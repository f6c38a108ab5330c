#include "workload/generator.h"

#include <algorithm>

namespace hermes::workload {

namespace {

// DML commands per local transaction.
constexpr int kCmdsPerLocalTxn = 2;

}  // namespace

Generator::Generator(const WorkloadConfig& config, uint64_t seed)
    : config_(config),
      zipf_(static_cast<uint64_t>(config.rows_per_table),
            config.zipf_theta) {
  (void)seed;
}

int64_t Generator::PickKey(Rng& rng) const {
  return static_cast<int64_t>(zipf_.Next(rng));
}

db::Command Generator::MakeCommandForKey(db::TableId table, int64_t key,
                                         bool write) const {
  if (write) {
    return db::MakeAddKey(table, key, "val", db::Value(int64_t{1}));
  }
  return db::MakeSelectKey(table, key);
}

db::Command Generator::MakeCommand(Rng& rng, db::TableId table,
                                   bool write) const {
  return MakeCommandForKey(table, PickKey(rng), write);
}

core::GlobalTxnSpec Generator::NextGlobal(Rng& rng) const {
  core::GlobalTxnSpec spec;
  // E18 shaping: the `> 0` guards keep the RNG stream byte-identical to
  // older configs when the fractions are left at zero.
  const bool single_site = config_.single_site_fraction > 0 &&
                           rng.NextBool(config_.single_site_fraction);
  const bool read_only = config_.read_only_fraction > 0 &&
                         rng.NextBool(config_.read_only_fraction);
  if (directory_ != nullptr) {
    // Sharded mode: keys first, sites second — every command executes at
    // its key's current owner. Keys whose shard is mid-handoff (wedged)
    // are redrawn a few times so new work steers clear of the drain.
    const shard::ShardMap& map = directory_->Fetch();
    for (int c = 0; c < config_.cmds_per_global_txn; ++c) {
      const db::TableId table = static_cast<db::TableId>(
          rng.NextUint64(static_cast<uint64_t>(config_.tables_per_site)));
      const bool write =
          rng.NextBool(config_.global_write_fraction) && !read_only;
      int64_t key = PickKey(rng);
      for (int redraw = 0; redraw < 8 && map.WedgedKey(key); ++redraw) {
        key = PickKey(rng);
      }
      spec.steps.push_back(core::GlobalTxnSpec::Step{
          map.OwnerOfKey(key), MakeCommandForKey(table, key, write)});
    }
    return spec;
  }
  const int wanted =
      single_site ? 1
                  : std::min(config_.sites_per_global_txn, config_.num_sites);
  // Choose `wanted` distinct sites (partial Fisher-Yates over site ids).
  std::vector<SiteId> sites(static_cast<size_t>(config_.num_sites));
  for (int s = 0; s < config_.num_sites; ++s) {
    sites[static_cast<size_t>(s)] = s;
  }
  for (int i = 0; i < wanted; ++i) {
    const int j =
        i + static_cast<int>(rng.NextUint64(
                static_cast<uint64_t>(config_.num_sites - i)));
    std::swap(sites[static_cast<size_t>(i)], sites[static_cast<size_t>(j)]);
  }
  for (int c = 0; c < config_.cmds_per_global_txn; ++c) {
    const SiteId site = sites[static_cast<size_t>(c % wanted)];
    const db::TableId table = static_cast<db::TableId>(
        rng.NextUint64(static_cast<uint64_t>(config_.tables_per_site)));
    // The write coin is flipped unconditionally so a read-only transaction
    // consumes the same number of randoms as a read-write one.
    const bool write =
        rng.NextBool(config_.global_write_fraction) && !read_only;
    spec.steps.push_back(
        core::GlobalTxnSpec::Step{site, MakeCommand(rng, table, write)});
  }
  return spec;
}

core::LocalTxnSpec Generator::NextLocal(Rng& rng, SiteId site,
                                        db::TableId local_table) const {
  core::LocalTxnSpec spec;
  spec.site = site;
  for (int c = 0; c < kCmdsPerLocalTxn; ++c) {
    const bool write = rng.NextBool(config_.local_write_fraction);
    db::TableId table;
    if (write && local_table >= 0) {
      // CGM partition: local updates go to the locally updateable table.
      table = local_table;
    } else {
      table = static_cast<db::TableId>(
          rng.NextUint64(static_cast<uint64_t>(config_.tables_per_site)));
    }
    if (directory_ != nullptr) {
      // Sharded mode: only keys living at this site make sense locally.
      // Redraw until one lands here; with shards spread evenly the expected
      // number of draws is the site count, so the bound is generous. A key
      // that stubbornly refuses is used as-is (the command then fails like
      // any mistargeted local access would).
      const shard::ShardMap& map = directory_->Fetch();
      int64_t key = PickKey(rng);
      for (int redraw = 0;
           redraw < 64 && (map.OwnerOfKey(key) != site || map.WedgedKey(key));
           ++redraw) {
        key = PickKey(rng);
      }
      spec.commands.push_back(MakeCommandForKey(table, key, write));
      continue;
    }
    spec.commands.push_back(MakeCommand(rng, table, write));
  }
  return spec;
}

}  // namespace hermes::workload
