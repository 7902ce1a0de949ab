#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace cloudburst::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::JobAssigned: return "JobAssigned";
    case EventKind::FetchStart: return "FetchStart";
    case EventKind::FetchEnd: return "FetchEnd";
    case EventKind::ProcessStart: return "ProcessStart";
    case EventKind::ProcessEnd: return "ProcessEnd";
    case EventKind::RobjSent: return "RobjSent";
    case EventKind::RobjMerged: return "RobjMerged";
    case EventKind::BatchRequested: return "BatchRequested";
    case EventKind::BatchGranted: return "BatchGranted";
    case EventKind::SlaveFailed: return "SlaveFailed";
    case EventKind::InstanceActivated: return "InstanceActivated";
    case EventKind::CacheHit: return "CacheHit";
    case EventKind::CacheMiss: return "CacheMiss";
    case EventKind::CacheEvict: return "CacheEvict";
    case EventKind::PrefetchIssued: return "PrefetchIssued";
    case EventKind::PrefetchWasted: return "PrefetchWasted";
    case EventKind::StoreFault: return "StoreFault";
    case EventKind::RetryBackoff: return "RetryBackoff";
    case EventKind::HedgeIssued: return "HedgeIssued";
    case EventKind::HedgeWon: return "HedgeWon";
    case EventKind::RunEnd: return "RunEnd";
    case EventKind::JobSubmitted: return "JobSubmitted";
    case EventKind::JobStarted: return "JobStarted";
    case EventKind::JobPreempted: return "JobPreempted";
    case EventKind::JobFinished: return "JobFinished";
    case EventKind::NodeDrainRequested: return "NodeDrainRequested";
    case EventKind::NodeVacated: return "NodeVacated";
    case EventKind::NodeReclaimed: return "NodeReclaimed";
    case EventKind::CheckpointFlushed: return "CheckpointFlushed";
    case EventKind::JobMigrated: return "JobMigrated";
    case EventKind::ReplicaCreated: return "ReplicaCreated";
    case EventKind::ReplicaLost: return "ReplicaLost";
    case EventKind::ReplicaRepaired: return "ReplicaRepaired";
    case EventKind::QosThrottled: return "QosThrottled";
    case EventKind::ReservationGranted: return "ReservationGranted";
    case EventKind::ReservationRejected: return "ReservationRejected";
    case EventKind::NodeRegistered: return "NodeRegistered";
    case EventKind::NodeRetired: return "NodeRetired";
    case EventKind::LeaseGranted: return "LeaseGranted";
    case EventKind::LeaseReturned: return "LeaseReturned";
    case EventKind::JobRejected: return "JobRejected";
    case EventKind::LinkDown: return "LinkDown";
    case EventKind::LinkRestored: return "LinkRestored";
    case EventKind::StoreOffline: return "StoreOffline";
    case EventKind::StoreOnline: return "StoreOnline";
    case EventKind::SiteOutage: return "SiteOutage";
    case EventKind::SiteRecovered: return "SiteRecovered";
  }
  return "?";
}

void Tracer::record(double t, EventKind kind, std::string actor, std::uint64_t a,
                    std::uint64_t b) {
  events_.push_back(Event{t, kind, std::move(actor), a, b});
}

std::size_t Tracer::count(EventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const Event& e) { return e.kind == kind; }));
}

std::string Tracer::to_jsonl() const {
  std::string out;
  char buf[96];
  for (const Event& e : events_) {
    std::snprintf(buf, sizeof(buf), "{\"t\":%.6f,\"kind\":\"%s\",\"actor\":\"", e.t,
                  to_string(e.kind));
    out += buf;
    for (const char c : e.actor) {  // a JSON string (RFC 8259)
      if (static_cast<unsigned char>(c) < 0x20) {
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
    }
    std::snprintf(buf, sizeof(buf), "\",\"a\":%llu,\"b\":%llu}\n",
                  static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b));
    out += buf;
  }
  return out;
}

std::string Tracer::render_gantt(std::size_t width) const {
  if (events_.empty() || width == 0) return "";
  double t_end = 0.0;
  for (const Event& e : events_) t_end = std::max(t_end, e.t);
  if (t_end <= 0.0) return "";

  // Per-actor interval lists for fetch and process activity.
  struct Row {
    std::vector<std::pair<double, double>> fetch;
    std::vector<std::pair<double, double>> cache_fetch;  ///< served by the site cache
    std::vector<std::pair<double, double>> process;
    std::vector<double> faults;  ///< store faults / retries hit by this actor
    // Workload job lanes (actor = job name).
    std::vector<std::pair<double, double>> queued;
    std::vector<std::pair<double, double>> running;
    std::vector<double> preempts;
    std::vector<std::pair<double, char>> lifecycle;  ///< drain/vacate/reclaim/migrate marks
    std::map<std::uint64_t, double> open_fetch;
    std::map<std::uint64_t, double> open_process;
    std::map<std::uint64_t, double> open_queue;
    std::map<std::uint64_t, double> open_run;
    std::set<std::uint64_t> cache_hits;  ///< chunks this actor hit in cache
  };
  std::map<std::string, Row> rows;
  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::FetchStart: rows[e.actor].open_fetch[e.a] = e.t; break;
      case EventKind::StoreFault:
      case EventKind::RetryBackoff: rows[e.actor].faults.push_back(e.t); break;
      case EventKind::CacheHit: rows[e.actor].cache_hits.insert(e.a); break;
      case EventKind::FetchEnd: {
        auto& row = rows[e.actor];
        const auto it = row.open_fetch.find(e.a);
        if (it != row.open_fetch.end()) {
          auto& spans = row.cache_hits.count(e.a) ? row.cache_fetch : row.fetch;
          spans.emplace_back(it->second, e.t);
          row.open_fetch.erase(it);
        }
        break;
      }
      case EventKind::JobSubmitted: rows[e.actor].open_queue[e.a] = e.t; break;
      case EventKind::JobStarted: {
        auto& row = rows[e.actor];
        const auto it = row.open_queue.find(e.a);
        if (it != row.open_queue.end()) {
          row.queued.emplace_back(it->second, e.t);
          row.open_queue.erase(it);
        }
        row.open_run[e.a] = e.t;
        break;
      }
      case EventKind::JobPreempted: rows[e.actor].preempts.push_back(e.t); break;
      case EventKind::NodeDrainRequested: rows[e.actor].lifecycle.emplace_back(e.t, 'D'); break;
      case EventKind::NodeVacated: rows[e.actor].lifecycle.emplace_back(e.t, 'v'); break;
      case EventKind::NodeReclaimed: rows[e.actor].lifecycle.emplace_back(e.t, 'R'); break;
      case EventKind::JobMigrated: rows[e.actor].lifecycle.emplace_back(e.t, 'M'); break;
      case EventKind::ReplicaCreated: rows[e.actor].lifecycle.emplace_back(e.t, '+'); break;
      case EventKind::ReplicaLost: rows[e.actor].lifecycle.emplace_back(e.t, '~'); break;
      case EventKind::ReplicaRepaired: rows[e.actor].lifecycle.emplace_back(e.t, 'r'); break;
      case EventKind::NodeRegistered: rows[e.actor].lifecycle.emplace_back(e.t, '>'); break;
      case EventKind::NodeRetired: rows[e.actor].lifecycle.emplace_back(e.t, '<'); break;
      case EventKind::LeaseGranted: rows[e.actor].lifecycle.emplace_back(e.t, 'L'); break;
      case EventKind::LeaseReturned: rows[e.actor].lifecycle.emplace_back(e.t, '='); break;
      case EventKind::JobRejected: rows[e.actor].lifecycle.emplace_back(e.t, '#'); break;
      case EventKind::LinkDown: rows[e.actor].lifecycle.emplace_back(e.t, 'W'); break;
      case EventKind::LinkRestored: rows[e.actor].lifecycle.emplace_back(e.t, 'w'); break;
      case EventKind::StoreOffline: rows[e.actor].lifecycle.emplace_back(e.t, 'S'); break;
      case EventKind::StoreOnline: rows[e.actor].lifecycle.emplace_back(e.t, 's'); break;
      case EventKind::SiteOutage: rows[e.actor].lifecycle.emplace_back(e.t, 'O'); break;
      case EventKind::SiteRecovered: rows[e.actor].lifecycle.emplace_back(e.t, 'o'); break;
      case EventKind::JobFinished: {
        auto& row = rows[e.actor];
        const auto it = row.open_run.find(e.a);
        if (it != row.open_run.end()) {
          row.running.emplace_back(it->second, e.t);
          row.open_run.erase(it);
        }
        break;
      }
      case EventKind::ProcessStart: rows[e.actor].open_process[e.a] = e.t; break;
      case EventKind::ProcessEnd: {
        auto& row = rows[e.actor];
        const auto it = row.open_process.find(e.a);
        if (it != row.open_process.end()) {
          row.process.emplace_back(it->second, e.t);
          row.open_process.erase(it);
        }
        break;
      }
      default: break;
    }
  }

  auto covers = [&](const std::vector<std::pair<double, double>>& spans, double lo,
                    double hi) {
    for (const auto& [b, e] : spans) {
      if (b < hi && e > lo) return true;
    }
    return false;
  };

  std::string out;
  char header[64];
  std::snprintf(header, sizeof(header), "0s%*s%.1fs\n", static_cast<int>(width), "",
                t_end);
  out += header;
  for (const auto& [actor, row] : rows) {
    if (row.fetch.empty() && row.cache_fetch.empty() && row.process.empty() &&
        row.queued.empty() && row.running.empty() && row.lifecycle.empty()) {
      continue;
    }
    std::string bar(width, '.');
    for (std::size_t i = 0; i < width; ++i) {
      const double lo = t_end * static_cast<double>(i) / static_cast<double>(width);
      const double hi = t_end * static_cast<double>(i + 1) / static_cast<double>(width);
      const bool f = covers(row.fetch, lo, hi);
      const bool c = covers(row.cache_fetch, lo, hi);
      const bool p = covers(row.process, lo, hi);
      bar[i] = p && (f || c) ? '*' : (p ? 'P' : (f ? 'f' : (c ? 'c' : '.')));
      // Job lifecycle lanes only fill bins no node activity claimed.
      if (bar[i] == '.') {
        if (covers(row.running, lo, hi)) {
          bar[i] = 'J';
        } else if (covers(row.queued, lo, hi)) {
          bar[i] = '-';
        }
      }
      // Markers outrank everything: '!' a failed / retried GET, 'x' a
      // preemption hit this bin.
      for (double t : row.preempts) {
        if (t >= lo && t < hi) {
          bar[i] = 'x';
          break;
        }
      }
      for (double t : row.faults) {
        if (t >= lo && t < hi) {
          bar[i] = '!';
          break;
        }
      }
      for (const auto& [t, mark] : row.lifecycle) {
        if (t >= lo && t < hi) {
          bar[i] = mark;
          break;
        }
      }
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%-16s |%s|\n", actor.c_str(), bar.c_str());
    out += line;
  }
  return out;
}

}  // namespace cloudburst::trace
