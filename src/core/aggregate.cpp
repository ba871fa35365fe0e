#include "dproc/core/aggregate.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

namespace dproc::core {

ClusterAggregator::ClusterAggregator(DMon& dmon, procfs::ProcFs& procfs,
                                     SimDuration staleness)
    : dmon_(dmon), staleness_(staleness) {
  for (const MetricDesc& desc : dmon_.metric_table()) {
    const MetricId id = desc.id;
    const std::string path = "/proc/cluster/summary/" + desc.key;
    Status status = procfs.register_file(path, [this, id] {
      const AggregateView view = aggregate(id);
      std::ostringstream out;
      out << std::setprecision(12) << "nodes " << view.nodes << "\n"
          << "min " << view.min << "\n"
          << "mean " << view.mean << "\n"
          << "max " << view.max << "\n";
      return out.str();
    });
    if (!status) dmon_.note_procfs_conflict(path, status);
  }
}

AggregateView ClusterAggregator::aggregate(MetricId id) const {
  AggregateView view;
  view.min = std::numeric_limits<double>::infinity();
  view.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  const SimTime now = dmon_.host_now();

  auto fold = [&](double value) {
    ++view.nodes;
    sum += value;
    view.min = std::min(view.min, value);
    view.max = std::max(view.max, value);
  };

  if (const MetricSample* local = dmon_.local_metric(id)) {
    fold(local->value);
  }
  dmon_.for_each_peer([&](net::NodeId node, const std::string&) {
    const RemoteMetric* metric = dmon_.remote_metric(node, id);
    if (metric != nullptr && now - metric->received_at <= staleness_) {
      fold(metric->value);
    }
  });

  if (view.nodes == 0) {
    view.min = view.max = 0.0;
  } else {
    view.mean = sum / static_cast<double>(view.nodes);
  }
  return view;
}

AggregateView ClusterAggregator::aggregate(const std::string& key) const {
  auto id = dmon_.metric_id(key);
  return id ? aggregate(*id) : AggregateView{};
}

}  // namespace dproc::core
