// GraphMetric — shortest-path metric of a weighted undirected graph.
//
// This is the substrate for the paper's motivating scenario (§1): services
// placed on nodes of a network infrastructure, clients connecting along
// network paths. Distances are the all-pairs shortest paths, computed once
// at construction by running Dijkstra from every node (binary heap,
// O(n·(m log m))), and served from a dense matrix afterwards.
#pragma once

#include <vector>

#include "metric/metric_space.hpp"

namespace omflp {

struct GraphEdge {
  PointId u = 0;
  PointId v = 0;
  double weight = 0.0;
};

class GraphMetric final : public MetricSpace {
 public:
  /// Builds the APSP closure. Throws if the graph is disconnected (a
  /// disconnected "metric" has infinite distances, which the model does
  /// not allow), if any weight is negative/non-finite, or any endpoint is
  /// out of range.
  GraphMetric(std::size_t num_nodes, const std::vector<GraphEdge>& edges);

  std::size_t num_points() const noexcept override { return n_; }
  double distance(PointId a, PointId b) const override;
  std::string description() const override;
  const double* stored_matrix() const noexcept override {
    return dist_.data();
  }

  std::size_t num_edges() const noexcept { return num_edges_; }

 private:
  std::size_t n_;
  std::size_t num_edges_;
  std::vector<double> dist_;  // row-major n×n
};

}  // namespace omflp
