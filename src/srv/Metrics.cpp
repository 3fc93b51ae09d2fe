//===- srv/Metrics.cpp - Prometheus rendering of serving state ------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "srv/Metrics.h"

#include "interp/Scheduler.h"
#include "obs/Metrics.h"
#include "srv/Wire.h"

using namespace stird;
using namespace stird::srv;
using obs::prom::Labels;
using obs::prom::Writer;

static void renderServerCounters(Writer &W,
                                 const obs::ServeCounters &C) {
  struct Row {
    const char *Name;
    const char *Help;
    const std::atomic<std::uint64_t> &Value;
  };
  const Row Rows[] = {
      {"stird_connections_accepted_total", "Connections accepted.",
       C.ConnectionsAccepted},
      {"stird_connections_closed_total", "Connections closed.",
       C.ConnectionsClosed},
      {"stird_connections_rejected_total",
       "Connections refused at accept time (connection cap).",
       C.ConnectionsRejected},
      {"stird_frames_in_total", "Request frames received.", C.FramesIn},
      {"stird_frames_out_total", "Reply frames sent.", C.FramesOut},
      {"stird_requests_dispatched_total",
       "Requests dispatched to the worker pool.", C.RequestsDispatched},
      {"stird_requests_overloaded_total",
       "Requests rejected by the global in-flight budget.",
       C.RequestsOverloaded},
      {"stird_protocol_errors_total",
       "Framing violations that poisoned a connection.", C.ProtocolErrors},
      {"stird_metrics_scrapes_total",
       "Scrapes of the metrics HTTP endpoint.", C.MetricsScrapes},
  };
  for (const Row &R : Rows) {
    W.header(R.Name, R.Help, "counter");
    W.sample(R.Name, {}, R.Value.load(std::memory_order_relaxed));
  }
}

static void renderScheduler(Writer &W, const interp::Scheduler &Pool) {
  const interp::SchedulerTelemetry T = Pool.telemetry();
  W.header("stird_scheduler_threads", "Threads in the worker pool.",
           "gauge");
  W.sample("stird_scheduler_threads", {},
           static_cast<std::uint64_t>(Pool.numThreads()));
  W.header("stird_scheduler_queue_depth",
           "Task entries published but not yet started.", "gauge");
  W.sample("stird_scheduler_queue_depth", {}, T.QueueDepth);
  W.header("stird_scheduler_jobs_total",
           "Fork-join jobs run through the pool.", "counter");
  W.sample("stird_scheduler_jobs_total", {}, T.Jobs);
  W.header("stird_scheduler_submitted_total",
           "Detached jobs dispatched (one per served request).",
           "counter");
  W.sample("stird_scheduler_submitted_total", {}, T.Submitted);
  W.header("stird_scheduler_tasks_total",
           "Task entries executed, labeled by how the executing thread "
           "obtained them.",
           "counter");
  W.sample("stird_scheduler_tasks_total", {{"source", "own"}},
           T.ExecutedOwn);
  W.sample("stird_scheduler_tasks_total", {{"source", "injected"}},
           T.ExecutedInjected);
  W.sample("stird_scheduler_tasks_total", {{"source", "stolen"}},
           T.ExecutedStolen);
  W.sample("stird_scheduler_tasks_total", {{"source", "inline"}},
           T.ExecutedInline);
  W.header("stird_scheduler_steals_total",
           "Successful Chase-Lev steals from sibling deques.", "counter");
  W.sample("stird_scheduler_steals_total", {}, T.ExecutedStolen);
}

static void renderTraces(Writer &W, const obs::RequestTraceSink &Sink) {
  W.header("stird_traces_started_total",
           "Requests considered for lifecycle tracing.", "counter");
  W.sample("stird_traces_started_total", {}, Sink.started());
  W.header("stird_traces_sampled_total",
           "Requests picked by 1-in-N sampling.", "counter");
  W.sample("stird_traces_sampled_total", {}, Sink.sampledCount());
  W.header("stird_traces_retained_total",
           "Finished traces retained (sampled or slow).", "counter");
  W.sample("stird_traces_retained_total", {}, Sink.retainedCount());
  W.header("stird_slow_requests_total",
           "Requests at or above the slow-query threshold.", "counter");
  W.sample("stird_slow_requests_total", {}, Sink.slowCount());
}

std::string srv::renderPrometheus(const TenantRegistry &Tenants) {
  Writer W;
  if (Tenants.Telemetry) {
    renderServerCounters(W, Tenants.Telemetry->Counters);
    if (Tenants.Telemetry->Pool)
      renderScheduler(W, *Tenants.Telemetry->Pool);
    renderTraces(W, Tenants.Telemetry->Traces);
    W.header("stird_slow_log_entries_total",
             "Records written to the slow-query log.", "counter");
    W.sample("stird_slow_log_entries_total", {},
             Tenants.Telemetry->SlowLog.written());
  }

  const std::vector<Tenant *> All = Tenants.tenants();

  W.header("stird_tenant_epoch", "Batches applied to the tenant.",
           "gauge");
  for (const Tenant *T : All)
    W.sample("stird_tenant_epoch", {{"tenant", T->Name}},
             T->Session->epoch());
  W.header("stird_tenant_requests_total",
           "Requests handled for the tenant.", "counter");
  for (const Tenant *T : All)
    W.sample("stird_tenant_requests_total", {{"tenant", T->Name}},
             T->Requests.load(std::memory_order_relaxed));

  // One family at a time: the exposition format requires every sample of
  // a family to sit in one group under its own HELP/TYPE lines.
  W.header("stird_cache_hits_total", "Query-cache hits.", "counter");
  for (const Tenant *T : All)
    W.sample("stird_cache_hits_total", {{"tenant", T->Name}},
             T->Cache.counters().Hits);
  W.header("stird_cache_misses_total", "Query-cache misses.", "counter");
  for (const Tenant *T : All)
    W.sample("stird_cache_misses_total", {{"tenant", T->Name}},
             T->Cache.counters().Misses);
  W.header("stird_cache_invalidations_total",
           "Query-cache wholesale invalidations.", "counter");
  for (const Tenant *T : All)
    W.sample("stird_cache_invalidations_total", {{"tenant", T->Name}},
             T->Cache.counters().Invalidations);
  W.header("stird_cache_entries", "Live query-cache entries.", "gauge");
  for (const Tenant *T : All)
    W.sample("stird_cache_entries", {{"tenant", T->Name}},
             T->Cache.counters().Entries);

  // Incremental maintenance: one telemetry snapshot per tenant, rendered
  // family by family.
  std::vector<MaintTelemetry> Maint;
  Maint.reserve(All.size());
  for (const Tenant *T : All)
    Maint.push_back(T->Session->maintTelemetry());
  W.header("stird_maintenance_enabled",
           "Always 1: every session maintains its batches in place (kept "
           "for compatibility).",
           "gauge");
  for (std::size_t I = 0; I < All.size(); ++I)
    W.sample("stird_maintenance_enabled", {{"tenant", All[I]->Name}},
             std::uint64_t(1));
  W.header("stird_maintenance_batches_total",
           "Mixed batches applied through the maintenance plan.",
           "counter");
  for (std::size_t I = 0; I < All.size(); ++I)
    W.sample("stird_maintenance_batches_total", {{"tenant", All[I]->Name}},
             Maint[I].Batches);
  W.header("stird_maintenance_deleted_total",
           "EDB tuples retracted by maintained batches.", "counter");
  for (std::size_t I = 0; I < All.size(); ++I)
    W.sample("stird_maintenance_deleted_total", {{"tenant", All[I]->Name}},
             Maint[I].Deleted);
  W.header("stird_maintenance_rederived_total",
           "Over-deleted tuples DRed re-derived by alternative support.",
           "counter");
  for (std::size_t I = 0; I < All.size(); ++I)
    W.sample("stird_maintenance_rederived_total",
             {{"tenant", All[I]->Name}}, Maint[I].Rederived);
  W.header("stird_maintenance_fallbacks_total",
           "Scoped Reeval stratum re-evaluations, by reason.",
           "counter");
  for (std::size_t I = 0; I < All.size(); ++I)
    for (const auto &[Reason, Count] : Maint[I].FallbackReasons)
      W.sample("stird_maintenance_fallbacks_total",
               {{"tenant", All[I]->Name}, {"reason", Reason}}, Count);

  W.header("stird_relation_size",
           "Tuples resident per declared relation.", "gauge");
  for (const Tenant *T : All) {
    Snapshot Snap = T->Session->snapshot();
    for (const std::string &Name : T->Session->relationNames()) {
      const interp::RelationWrapper *Rel = Snap.relation(Name);
      if (!Rel)
        continue;
      W.sample("stird_relation_size",
               {{"tenant", T->Name}, {"relation", Name}},
               static_cast<std::uint64_t>(Rel->size()));
    }
  }

  W.header("stird_request_latency_micros",
           "Server-side request handling time in microseconds.",
           "histogram");
  for (const Tenant *T : All)
    for (const auto &[Command, Hist] : T->Latency.snapshot())
      W.histogram("stird_request_latency_micros",
                  {{"tenant", T->Name}, {"command", Command}}, Hist);

  return W.text();
}
