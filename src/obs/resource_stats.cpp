#include "obs/resource_stats.h"

#include <algorithm>

#include "util/json.h"

namespace hsw::obs {

using json::appendf;

void ResourceStatsRecorder::bind(std::vector<std::string> names,
                                 std::vector<double> capacities_gbps) {
  if (names.size() == names_.size() && !names_.empty()) return;
  names_ = std::move(names);
  capacities_ = std::move(capacities_gbps);
  capacities_.resize(names_.size(), 0.0);
  usage_.assign(names_.size(), ResourceUsage{});
}

void ResourceStatsRecorder::record_point(ResourceUsage& u, double ns) {
  if (u.series_events++ % u.series_stride != 0) return;
  if (u.depth_series.size() >= 2 * kDepthSeriesCap) {
    // Stride-doubling decimation: keep every other retained point.  The
    // survivors are a function of event order alone, so the series is
    // byte-identical for any --jobs value.
    for (std::size_t i = 0; 2 * i < u.depth_series.size(); ++i) {
      u.depth_series[i] = u.depth_series[2 * i];
    }
    u.depth_series.resize((u.depth_series.size() + 1) / 2);
    u.series_stride *= 2;
  }
  u.depth_series.push_back(DepthSample{ns, u.depth()});
}

void ResourceStatsRecorder::settle(ResourceUsage& u, double now) {
  // Departures that happened before `now` are depth boundaries: close the
  // area strip up to each one, drop the request, and sample the series.
  while (!u.pending.empty() && u.pending.front() <= now) {
    const double at = u.pending.front();
    u.depth_area += static_cast<double>(u.depth()) * (at - u.mark);
    u.mark = at;
    u.pending.pop_front();
    record_point(u, at);
  }
  u.depth_area += static_cast<double>(u.depth()) * (now - u.mark);
  u.mark = now;
}

void ResourceStatsRecorder::on_service(std::size_t resource, double arrival_ns,
                                       double start_ns, double done_ns,
                                       double bytes) {
  if (finalized_ || resource >= usage_.size()) return;
  ResourceUsage& u = usage_[resource];
  settle(u, arrival_ns);

  const double wait = start_ns - arrival_ns;
  u.services += 1;
  u.bytes += bytes;
  u.busy_ns += done_ns - start_ns;
  u.wait_ns += wait;
  u.wait_max_ns = std::max(u.wait_max_ns, wait);
  u.residence_ns += done_ns - arrival_ns;
  u.wait_hist.add(wait);

  // FIFO: departures leave in arrival order, so the sorted invariant of
  // `pending` holds by construction.
  u.pending.push_back(done_ns);
  u.depth_max = std::max(u.depth_max, u.depth());
  record_point(u, arrival_ns);
  last_ns_ = std::max(last_ns_, done_ns);
}

void ResourceStatsRecorder::finalize(double now_ns) {
  if (finalized_) return;
  finalized_ = true;
  const double end = std::max(now_ns, last_ns_);
  for (ResourceUsage& u : usage_) {
    settle(u, end);
    u.pending.clear();
  }
  elapsed_ns_ = end;
}

MergedResourceStats merge_streams(
    std::span<const ResourceStatsRecorder* const> in_stream_order) {
  MergedResourceStats m;
  m.streams = in_stream_order.size();
  for (const ResourceStatsRecorder* recorder : in_stream_order) {
    const ResourceStatsRecorder& r = *recorder;
    if (m.names.empty() && r.bound()) {
      m.names = r.names();
      m.capacities_gbps = r.capacities_gbps();
      m.usage.assign(m.names.size(), ResourceUsage{});
    }
    m.elapsed_ns += r.elapsed_ns();
    const std::size_t count = std::min(m.usage.size(), r.usage().size());
    for (std::size_t res = 0; res < count; ++res) {
      const ResourceUsage& from = r.usage()[res];
      ResourceUsage& to = m.usage[res];
      to.busy_ns += from.busy_ns;
      to.services += from.services;
      to.bytes += from.bytes;
      to.wait_ns += from.wait_ns;
      to.wait_max_ns = std::max(to.wait_max_ns, from.wait_max_ns);
      to.residence_ns += from.residence_ns;
      to.wait_hist.merge(from.wait_hist);
      to.depth_area += from.depth_area;
      to.depth_max = std::max(to.depth_max, from.depth_max);
      if (m.streams == 1) to.depth_series = from.depth_series;
    }
  }
  return m;
}

std::string render_resources_section(const MergedResourceStats& m) {
  std::string out;
  out.reserve(4096);
  appendf(out, "  \"resources\": {\n");
  appendf(out, "    \"streams\": %zu,\n", m.streams);
  appendf(out, "    \"elapsed_ns\": %.6f,\n", m.elapsed_ns);
  appendf(out, "    \"items\": [");
  for (std::size_t r = 0; r < m.usage.size(); ++r) {
    const ResourceUsage& u = m.usage[r];
    appendf(out, "%s\n      {\"name\": \"%s\", \"capacity_gbps\": %.6f,\n",
            r == 0 ? "" : ",", m.names[r].c_str(), m.capacities_gbps[r]);
    appendf(out,
            "       \"busy_ns\": %.6f, \"utilization\": %.6f, "
            "\"services\": %llu, \"bytes\": %.6f,\n",
            u.busy_ns, m.utilization(r),
            static_cast<unsigned long long>(u.services), u.bytes);
    appendf(out,
            "       \"arrivals_per_us\": %.6f, \"mean_service_ns\": %.6f,\n",
            m.arrivals_per_us(r), u.mean_service_ns());
    appendf(out,
            "       \"wait_mean_ns\": %.6f, \"wait_max_ns\": %.6f, "
            "\"wait_total_ns\": %.6f,\n",
            u.mean_wait_ns(), u.wait_max_ns, u.wait_ns);
    appendf(out,
            "       \"depth_mean\": %.6f, \"depth_max\": %llu, "
            "\"littles_depth\": %.6f,\n",
            m.mean_depth(r), static_cast<unsigned long long>(u.depth_max),
            m.littles_depth(r));
    appendf(out, "       \"wait_hist\": [");
    bool first = true;
    u.wait_hist.for_each_bucket([&](int key, std::uint64_t count) {
      appendf(out, "%s[%.6f, %.6f, %llu]", first ? "" : ", ",
              LogHistogram::bucket_lower(key), LogHistogram::bucket_upper(key),
              static_cast<unsigned long long>(count));
      first = false;
    });
    appendf(out, "],\n");
    appendf(out, "       \"depth_series\": [");
    for (std::size_t i = 0; i < u.depth_series.size(); ++i) {
      appendf(out, "%s[%.6f, %llu]", i == 0 ? "" : ", ",
              u.depth_series[i].ns,
              static_cast<unsigned long long>(u.depth_series[i].depth));
    }
    appendf(out, "]}");
  }
  appendf(out, "%s]\n", m.usage.empty() ? "" : "\n    ");
  appendf(out, "  }");
  return out;
}

}  // namespace hsw::obs
