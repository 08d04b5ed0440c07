#include "serving.h"

#include <memory>
#include <thread>
#include <utility>

namespace e2e {

Traffic::Traffic(size_t users, bool zipf, bool sets, uint64_t seed)
    : rng_(seed), users_(users), sets_(sets) {
  if (zipf) zipf_ = std::make_unique<Zipf>(users, 1.0, &rng_);
}

std::vector<Request> Traffic::Draw(size_t n) {
  // Scans are kept to 15% so that the open loop's p50 and p75 fall inside
  // the demand requests' latency distribution, not on its lower edge.
  const size_t misses = n * 5 / 100;
  const size_t demand = (n - misses - n * 15 / 100) / 2;
  const size_t set = demand;
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i < misses) {
      size_t goal = rng_.Below(kGoals.size());
      if (goal == 1 && !sets_) goal = 0;
      out.push_back({kMiss, goal, "nobody" + std::to_string(misses_++)});
      continue;
    }
    const std::string key =
        UserName(zipf_ ? zipf_->Sample(&rng_) : rng_.Below(users_));
    if (i < misses + demand) {
      out.push_back({kDemand, 0, key});
    } else if (i < misses + demand + set) {
      out.push_back(sets_ ? Request{kSet, 1, key} : Request{kDemand, 0, key});
    } else {
      out.push_back({kScan, 2, key});
    }
  }
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng_.Below(i)]);
  return out;
}

namespace {

std::string TruthKey(const Request& r) {
  return std::to_string(r.goal) + ":" + r.key;
}

std::string BoundGoal(const Request& r) {
  std::string goal = kGoals[r.goal];
  goal.replace(goal.find('U'), 1, r.key);
  return goal;
}

}  // namespace

void Truth::Add(lps::Session* session, const Request& r) {
  const std::string k = TruthKey(r);
  if (checksum_.count(k) != 0) return;
  if (r.route == kMiss) {
    checksum_[k] = 0;
    return;
  }
  std::vector<lps::Tuple> rows =
      MustOk(session->Query(BoundGoal(r)), "ground truth " + BoundGoal(r));
  checksum_[k] = RowChecksum(*session->store(), rows);
}

const uint64_t* Truth::Find(const Request& r) const {
  auto it = checksum_.find(TruthKey(r));
  return it == checksum_.end() ? nullptr : &it->second;
}

namespace {

Deployment Deploy(const DeploySpec& spec) {
  Deployment d;
  lps::Options opts;
  opts.threads = spec.lanes;
  opts.incremental = spec.incremental;
  d.session = std::make_unique<lps::Session>(lps::LanguageMode::kLDL, opts);
  MustOk(d.session->Load(spec.rules), "loading rules");
  Clock::time_point t = Clock::now();
  MustOk(d.session->LoadFactsParallel(*spec.text, spec.lanes),
         "LoadFactsParallel");
  d.load_ms = MsSince(t);
  t = Clock::now();
  MustOk(d.session->Evaluate(), "Evaluate");
  d.eval_ms = MsSince(t);
  t = Clock::now();
  d.snapshot = MustOk(d.session->Freeze(), "Freeze");
  d.freeze_ms = MsSince(t);
  d.registry = std::make_unique<lps::serve::SnapshotRegistry>();
  t = Clock::now();
  d.registry->Publish(d.snapshot);
  d.publish_us = MsSince(t) * 1e3;
  lps::serve::ServeOptions so;
  so.threads = spec.server_lanes;
  so.record_answers = false;
  so.default_timeout_micros = kLimitMicros;
  d.server = std::make_unique<lps::serve::QueryServer>(d.registry.get(), so);
  d.query_ids.assign(kGoals.size(), 0);
  // Warm-up: request i runs on lane i % lanes, so this order gives every
  // lane each goal once - every lane binds and caches each route's
  // rewrite before timing starts.
  std::vector<lps::serve::ServeRequest> warm;
  for (size_t q = 0; q < kGoals.size(); ++q) {
    if (q == 1 && !spec.sets) continue;
    d.query_ids[q] = MustOk(d.server->Prepare(kGoals[q]), "Prepare");
    for (size_t lane = 0; lane < spec.server_lanes; ++lane) {
      warm.push_back({d.query_ids[q], {{"U", UserName(lane)}}});
    }
  }
  MustOk(d.server->ExecuteBatch(warm).status(), "warm-up batch");
  return d;
}

}  // namespace

Deployment DeployRepeatedly(const DeploySpec& spec, size_t times,
                            std::vector<double>* setup_s,
                            std::vector<double>* freeze_ms,
                            std::vector<double>* publish_us) {
  Deployment d;
  for (size_t i = 0; i < times; ++i) {
    d.server.reset();  // before the registry it reads
    d = Deployment{};
    const Clock::time_point t0 = Clock::now();
    d = Deploy(spec);
    setup_s->push_back(MsSince(t0) / 1e3);
    freeze_ms->push_back(d.freeze_ms);
    publish_us->push_back(d.publish_us);
  }
  return d;
}

void ServeBatch(lps::serve::QueryServer* server,
                const std::vector<size_t>& query_ids,
                const std::vector<Request>& requests,
                const std::vector<Clock::time_point>& due, const Truth* truth,
                Tracer* tracer, ServeTally* tally) {
  std::vector<lps::serve::ServeRequest> batch(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    batch[i].query = query_ids[requests[i].goal];
    batch[i].params = {{"U", requests[i].key}};
  }
  const uint64_t iteration = tally->iteration++;
  const Clock::time_point start = Clock::now();
  lps::Result<std::vector<lps::serve::ServeAnswer>> answers =
      server->ExecuteBatch(batch);
  const Clock::time_point end = Clock::now();
  tally->attempted += requests.size();
  if (!answers.ok()) {
    tally->failed += requests.size();
    return;
  }
  const bool traced = tracer->recording();
  const uint32_t root =
      tracer->Add("server.batch", 0, iteration, start, end);
  // Requests are striped over the lanes (request i runs on lane
  // i % lanes, in order), so each lane's children sit back to back.
  const size_t lanes = server->threads();
  std::vector<Clock::time_point> lane_clock(lanes, start);
  for (size_t i = 0; i < requests.size(); ++i) {
    const lps::serve::ServeAnswer& a = (*answers)[i];
    tally->svc_us[requests[i].route].push_back(a.micros);
    tally->busy_us += a.micros;
    if (root != 0) {
      Clock::time_point& at = lane_clock[i % lanes];
      const Clock::time_point stop =
          at + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::micro>(a.micros));
      tracer->Add("server.request", root, i, at, stop);
      at = stop;
    }
    bool bad = !a.status.ok();
    if (!bad && truth != nullptr) {
      const uint64_t* expected = truth->Find(requests[i]);
      if (expected == nullptr || *expected != a.checksum) {
        ++tally->mismatched;
        bad = true;
      }
    }
    if (bad) ++tally->failed;
    if (!due.empty()) {
      const double ms = MsBetween(due[i], end);
      tally->latency_ms.push_back(ms);
      (traced ? tally->traced_ms : tally->untraced_ms).push_back(ms);
      tally->queue_ms.push_back(MsBetween(due[i], start));
    }
  }
  tally->lane_wall_us +=
      static_cast<double>(lanes) * MsBetween(start, end) * 1e3;
  if (!due.empty()) {
    ++tally->open_batches;
    tally->open_requests += requests.size();
  }
}

void RunOpenLoop(lps::serve::QueryServer* server,
                 const std::vector<size_t>& query_ids,
                 const std::vector<Request>& schedule, double rate,
                 const Truth* truth, Tracer* tracer, ServeTally* tally,
                 const std::atomic<bool>* stop) {
  const Clock::time_point t0 = Clock::now();
  auto due_at = [t0, rate](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  std::vector<Request> batch;
  std::vector<Clock::time_point> due;
  size_t next = 0;
  uint64_t batches = 0;
  while (next < schedule.size() &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    const Clock::time_point now = Clock::now();
    if (due_at(next) > now) {
      std::this_thread::sleep_until(due_at(next));
      continue;
    }
    batch.clear();
    due.clear();
    while (next < schedule.size() && due_at(next) <= now) {
      batch.push_back(schedule[next]);
      due.push_back(due_at(next));
      ++next;
    }
    tracer->set_recording(batches++ % 2 == 0);
    ServeBatch(server, query_ids, batch, due, truth, tracer, tally);
  }
  tracer->set_recording(false);
}

void FillServer(const ServeTally& tally, const lps::serve::ServeStats& st,
                Layers* out) {
  static const char* kRouteMetric[kRoutes] = {
      "server.svc_us_p50.demand", "server.svc_us_p50.set",
      "server.svc_us_p50.scan", "server.svc_us_p50.miss"};
  for (size_t r = 0; r < kRoutes; ++r) {
    out->Set(kRouteMetric[r], Median(tally.svc_us[r]));
  }
  out->Set("server.queue_wait_ms_p50", Median(tally.queue_ms));
  if (tally.open_batches > 0) {
    out->Set("server.batch_size_mean",
             static_cast<double>(tally.open_requests) /
                 static_cast<double>(tally.open_batches));
  }
  if (tally.lane_wall_us > 0) {
    out->Set("server.lane_busy_frac", tally.busy_us / tally.lane_wall_us);
  }
  if (st.queries > 0) {
    out->Set("server.demand_frac", static_cast<double>(st.demand_queries) /
                                       static_cast<double>(st.queries));
  }
  const double lookups =
      static_cast<double>(st.rewrite_cache_hits + st.rewrites_built);
  if (lookups > 0) {
    out->Set("server.rewrite_hit_ratio",
             static_cast<double>(st.rewrite_cache_hits) / lookups);
  }
  out->Set("server.worker_refreshes", static_cast<double>(st.worker_refreshes));
  out->Set("server.worker_rebinds", static_cast<double>(st.worker_rebinds));
  out->Set("server.read_p50_ms", Median(tally.latency_ms));
  out->Set("server.read_p90_ms", Percentile(tally.latency_ms, 0.9));
}

}  // namespace e2e
