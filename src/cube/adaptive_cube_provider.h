// AdaptiveCubeProvider: a hot-swappable cube layer for growing datasets.
//
// CubeCountProvider (Fig. 6d) is a static configuration: build the cube
// up front, answer from it forever. This provider makes the cube a
// *runtime decision*: it wraps a live base engine (the registry's
// AppendOnlyCountProvider) and holds an optional DataCube installed by the
// dataset registry's advisor. A query over a subset of the cube's
// dimensions is answered from the lattice — no scan at all — when the
// cube is current (built at the base's present population version);
// anything else (uncovered columns, stale cube, no cube) delegates to
// the base untouched.
//
// Staleness is handled by construction, not invalidation: the installed
// cube carries the watermark it was built at, and every query compares
// it against the live base's PopulationVersion(). An append makes the
// cube silently inert (bit-identity is never at risk); the advisor
// observes the mismatch on its next pass and demotes (drops) or rebuilds
// it. Installation and demotion are O(1) pointer swaps — the build
// itself happens outside any engine lock, on the advisor's thread.
//
// The provider is also an observed-cell oracle: a current cube knows the
// exact cell count of every covered subset (DataCube::CellsFor), which
// feeds CachePolicy::AdmitMaterialization through the ObservedCellBound
// chain — how the adaptive policy admits sparse S ∪ P summaries whose
// domain-product bound looks too big.
//
// Thread safety: all public methods may be called concurrently. The
// installed cube is an immutable snapshot behind a mutex-guarded
// shared_ptr; Counts grabs the pointer under the lock and serves outside
// it.

#ifndef HYPDB_CUBE_ADAPTIVE_CUBE_PROVIDER_H_
#define HYPDB_CUBE_ADAPTIVE_CUBE_PROVIDER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "cube/data_cube.h"
#include "engine/count_engine.h"

namespace hypdb {

class AdaptiveCubeProvider : public CountEngine {
 public:
  explicit AdaptiveCubeProvider(std::shared_ptr<CountEngine> base);

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  int64_t NumRows() const override { return base_->NumRows(); }

  Status Prefetch(const std::vector<int>& cols) override {
    return base_->Prefetch(cols);
  }

  int64_t PopulationVersion() const override {
    return base_->PopulationVersion();
  }

  /// Deltas always come from the base (the cube has no suffix notion).
  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override {
    return base_->CountsDelta(cols, from_version, to_version);
  }

  /// A current cube knows the exact cells of every covered subset.
  int64_t ObservedCellBound(const std::vector<int>& cols) const override;

  /// This adapter's counters (cube_hits; fallback_calls for delegated
  /// queries while a cube is installed) plus the base engine's.
  CountEngineStats stats() const override;
  void ResetStats() override;

  /// Installs `cube` as the serving lattice for queries at population
  /// version `watermark`. Replaces any previous cube.
  void InstallCube(std::shared_ptr<const DataCube> cube, int64_t watermark);
  /// Drops the installed cube (demotion). No-op when none is installed.
  void DropCube();

  bool HasCube() const;
  /// Watermark the installed cube was built at, or -1 when none.
  int64_t CubeWatermark() const;
  /// Total lattice cells of the installed cube (memory proxy), 0 if none.
  int64_t CubeCells() const;
  /// Sorted dimensions of the installed cube; empty when none.
  std::vector<int> CubeDims() const;

 private:
  struct Installed {
    std::shared_ptr<const DataCube> cube;
    int64_t watermark = 0;
  };

  /// The installed snapshot, or null. Takes mu_.
  std::shared_ptr<const Installed> Snapshot() const;

  std::shared_ptr<CountEngine> base_;
  mutable std::mutex mu_;
  std::shared_ptr<const Installed> installed_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_CUBE_ADAPTIVE_CUBE_PROVIDER_H_
