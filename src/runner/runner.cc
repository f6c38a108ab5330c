#include "runner/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "common/str.h"
#include "trace/binary.h"
#include "trace/trace.h"

namespace hermes::runner {

int EffectiveWorkers(int workers) {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::string DescribeException(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

Status ParallelFor(size_t n, int workers,
                   const std::function<void(size_t)>& fn) {
  const size_t pool = std::min(
      static_cast<size_t>(EffectiveWorkers(workers)), n == 0 ? 1 : n);
  if (pool <= 1) {
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        return Status::Internal(StrCat(
            "task ", i, " failed: ", DescribeException(std::current_exception())));
      }
    }
    return Status::Ok();
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::string first_error;
  auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::string what = DescribeException(std::current_exception());
        std::lock_guard<std::mutex> lock(mu);
        if (!failed.exchange(true)) {
          first_error = StrCat("task ", i, " failed: ", what);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pool);
  for (size_t t = 0; t < pool; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (failed.load()) return Status::Internal(first_error);
  return Status::Ok();
}

Result<std::vector<RunOutput>> RunAll(const std::vector<RunSpec>& specs,
                                      const SweepOptions& options) {
  for (const RunSpec& spec : specs) {
    const Status valid = spec.config.Validate();
    if (!valid.ok()) {
      return Status::InvalidArgument(
          StrCat("cell ", spec.cell, ": ", valid.message()));
    }
  }
  std::vector<RunOutput> outputs(specs.size());
  const Status status =
      ParallelFor(specs.size(), options.workers, [&](size_t i) {
        workload::WorkloadConfig config = specs[i].config;
        config.tracer = nullptr;
        std::optional<trace::Tracer> tracer;
        if (specs[i].capture_trace) {
          tracer.emplace(specs[i].trace_options);
          config.tracer = &*tracer;
        }
        outputs[i].result = workload::Driver::Run(config);
        if (tracer.has_value()) outputs[i].trace_binary = tracer->ToBinary();
      });
  if (!status.ok()) return status;
  return outputs;
}

std::string Fingerprint(const RunOutput& out) {
  const workload::RunResult& r = out.result;
  std::string fp = r.metrics.ToString();
  StrAppend(fp, "latency_hist: ", r.metrics.latency_hist.ToString(),
            " samples=", r.metrics.latency_samples,
            " total=", r.metrics.latency_total, "\n");
  StrAppend(fp, "ltm: begun=", r.ltm.begun, " committed=", r.ltm.committed,
            " aborted=", r.ltm.aborted,
            " unilateral=", r.ltm.unilateral_aborts,
            " injected=", r.ltm.injected_aborts,
            " lock_timeout=", r.ltm.lock_timeout_aborts,
            " deadlock=", r.ltm.deadlock_victim_aborts,
            " commands=", r.ltm.commands_executed,
            " dlu_waits=", r.ltm.dlu_waits,
            " dlu_rejections=", r.ltm.dlu_rejections, "\n");
  StrAppend(fp, "net: messages=", r.messages, " dropped=", r.msgs_dropped,
            " duplicated=", r.msgs_duplicated,
            " reordered=", r.msgs_reordered, "\n");
  StrAppend(fp, "sim: end_time=", r.end_time, " events=", r.events, "\n");
  if (r.event_budget_exhausted) fp += "sim: event budget exhausted\n";
  StrAppend(fp, "oracle: checked=", r.history_checked ? 1 : 0,
            " cg_acyclic=", r.commit_graph_acyclic ? 1 : 0,
            " verdict=", history::VerdictName(r.verdict),
            " replay=", r.replay_consistent ? 1 : 0,
            " order_invariant=", r.order_invariant_ok ? 1 : 0,
            " atomicity=", r.atomicity_ok ? 1 : 0,
            " ops=", r.history_ops, "\n");
  for (size_t s = 0; s < r.site_metrics.size(); ++s) {
    StrAppend(fp, "site", s, ":");
    for (const auto& [name, value] : r.site_metrics[s].CounterEntries()) {
      if (value != 0) StrAppend(fp, " ", name, "=", value);
    }
    fp += '\n';
  }
  if (!r.series.empty()) StrAppend(fp, r.series.ToString());
  // The capture is opaque bytes; fingerprint it verbatim so any
  // serial-vs-parallel divergence in the trace fails byte identity.
  fp += "trace:\n";
  if (!out.trace_binary.empty()) {
    StrAppend(fp, "trace_binary[", out.trace_binary.size(), "]:",
              out.trace_binary, "\n");
  }
  return fp;
}

Result<std::string> MergeBinaryTraces(const std::vector<RunOutput>& outputs) {
  struct Tagged {
    trace::Event event;
    size_t run = 0;
  };
  std::vector<Tagged> all;
  int64_t dropped = 0;
  int64_t sampled_out = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].trace_binary.empty()) {
      return Status::InvalidArgument(
          StrCat("run ", i, " has no binary trace capture"));
    }
    trace::BinaryParse p = trace::ParseBinaryLenient(outputs[i].trace_binary);
    if (p.damaged()) {
      return Status::InvalidArgument(StrCat(
          "run ", i, ": damaged binary trace",
          p.warnings.empty() ? "" : StrCat(" — ", p.warnings.front())));
    }
    dropped += p.dropped;
    sampled_out += p.sampled_out;
    all.reserve(all.size() + p.events.size());
    for (trace::Event& e : p.events) all.push_back({std::move(e), i});
  }
  // Stable sort on (virtual time, site, seq, run): a total order built
  // only from run content and spec position, never from completion order.
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a,
                                              const Tagged& b) {
    return std::tie(a.event.at, a.event.site, a.event.seq, a.run) <
           std::tie(b.event.at, b.event.site, b.event.seq, b.run);
  });
  trace::BinaryTraceWriter writer;
  writer.AddDropped(dropped);
  writer.AddSampledOut(sampled_out);
  for (const Tagged& t : all) writer.Add(t.event);
  return writer.Finish();
}

}  // namespace hermes::runner
