#pragma once
// Device residency: persistent named device buffers with dirty tracking.
//
// The paper's offload versions pay a full host<->device round-trip of
// every bin distribution on every collision pass: `target data
// map(to: ff, temp, pres) map(from: ff)` per launch, re-shipping fields
// whose device copy is already current.  This module gives the simulated
// device a real data environment instead of byte-counter transfers:
//
//   * `FieldTable` semantics — a `DataRegion` holds one named device
//     buffer per registered field, allocated against
//     `DeviceSpec::dram_bytes` through the same capacity check as
//     `target enter data map(alloc:)` (so a domain that does not fit
//     raises DeviceError::kOutOfMemory up front, paper-style).
//   * OpenMP `target data` verbs at field granularity — `map_to` /
//     `map_from` (allocate + full copy), `update_to` / `update_from`
//     (`target update`-style copies of only the *dirty* bytes), `unmap`
//     (`exit data map(delete:)`).
//   * Per-field dirty bits with sub-field byte ranges (`DirtySpans`):
//     host-side writers mark what they wrote (a halo unpack marks only
//     the shell strips; interior cells never re-transfer), device
//     kernels mark what they computed, and the update verbs move exactly
//     the marked bytes, coalesced.  Last writer wins: marking one side
//     dirty drops the other side's pending marks for those bytes, so an
//     update can never ship stale data over fresher data.
//
// The functional simulation always runs in host memory (the device is
// modeled), so the region never owns data — it is the *transfer
// accounting* a real device-resident implementation would perform, which
// is what makes the `res=step` vs `res=persist` traffic comparison
// measurable in modeled milliseconds and bytes while the physics stays
// bitwise identical.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace wrf::gpu {
class Device;
}

namespace wrf::mem {

/// The `res=` knob: per-launch `target data` regions (the paper's
/// as-ported behavior) vs persistent device residency across steps.
/// Its names live in the knob table (model/knobs.hpp).
enum class ResidencyMode : int { kStep = 0, kPersist = 1 };

/// One contiguous byte range of a field's storage (e.g. a strip row).
struct ByteRange {
  std::uint64_t off = 0;
  std::uint64_t len = 0;
};

/// Sorted, coalescing set of half-open byte intervals [off, off+len).
/// Insertions are O(1) amortized when they arrive in ascending order
/// (the order every field walker here produces); the set normalizes
/// lazily on query.
class DirtySpans {
 public:
  void add(std::uint64_t off, std::uint64_t len);
  /// Mark the whole field [0, total).
  void add_all(std::uint64_t total) { clear(); add(0, total); }
  void clear();

  bool empty() const noexcept { return spans_.empty(); }
  /// Total dirty bytes (normalized).
  std::uint64_t bytes() const;
  /// Number of disjoint intervals after normalization (tests use this to
  /// assert strip granularity, e.g. that adjacent rows coalesced).
  std::size_t spans() const;

  /// Remove and return the number of dirty bytes inside [off, off+len) —
  /// the `target update` of a sub-rectangle (halo send strips).
  std::uint64_t take_range(std::uint64_t off, std::uint64_t len);
  /// Batched take_range over rows sorted ascending and disjoint (the
  /// order rect_rows produces): one merged sweep over the span set
  /// instead of one O(spans) rebuild per row, so flushing an R-row
  /// strip out of a fully dirty field costs O(spans + R), not O(R^2).
  std::uint64_t take_ranges(const std::vector<ByteRange>& rows);
  /// Remove and return all dirty bytes.
  std::uint64_t take_all();

 private:
  void normalize() const;
  /// (off, end) pairs; kept sorted+disjoint only after normalize().
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> spans_;
  mutable bool normalized_ = true;
};

/// Field handle within a DataRegion.
using FieldId = int;
constexpr FieldId kInvalidField = -1;

/// A device data environment over one gpu::Device: the field table plus
/// `target data` semantics.  Not thread-safe; writers mark dirty ranges
/// from the (serial) pass epilogues, never from inside parallel bodies.
class DataRegion {
 public:
  explicit DataRegion(gpu::Device& device);
  /// Frees every still-resident named buffer (exit data on scope end).
  ~DataRegion();

  DataRegion(const DataRegion&) = delete;
  DataRegion& operator=(const DataRegion&) = delete;

  /// Register a field: name + device-buffer size.  Registration alone
  /// allocates nothing; `map_alloc`/`map_to` make the field resident.
  FieldId add_field(std::string name, std::uint64_t bytes);

  int fields() const noexcept { return static_cast<int>(slots_.size()); }
  const std::string& name(FieldId f) const { return slot(f).name; }
  std::uint64_t bytes(FieldId f) const { return slot(f).bytes; }

  /// `target enter data map(alloc:)`: allocate the named device buffer
  /// through the capacity check (DeviceError::kOutOfMemory when the
  /// domain does not fit).  Idempotent — double-mapping an already
  /// resident field allocates and charges nothing (OpenMP presence
  /// semantics).  A freshly mapped field starts fully host-dirty: the
  /// device copy is undefined until the first update_to.
  void map_alloc(FieldId f);
  /// `map(to:)`: map_alloc + full-field h2d copy.  Clears host dirt.
  void map_to(FieldId f);
  /// `map(from:)`: full-field d2h copy of a resident field.  Clears
  /// device dirt.  Throws Error when the field is not resident.
  void map_from(FieldId f);
  /// `target exit data map(delete:)`: release the device buffer.  The
  /// host copy becomes the only one, so the field returns to fully
  /// host-dirty for any future re-map.  No-op when not resident.
  void unmap(FieldId f);
  void unmap_all();

  bool resident(FieldId f) const { return slot(f).resident; }
  /// Sum of resident field bytes (the persistent footprint a rank pins).
  std::uint64_t resident_bytes() const noexcept { return resident_bytes_; }

  // --- dirty marking (who wrote what since the copies last agreed) ---
  // Last writer wins: marking bytes dirty on one side drops the other
  // side's pending marks for those bytes — a host write supersedes any
  // unflushed device write of the same range (and vice versa), so a
  // later update can never ship stale data over fresher data.
  void mark_host_dirty(FieldId f) {
    Slot& s = slot(f);
    s.host_dirty.add_all(s.bytes);
    s.device_dirty.clear();
  }
  void mark_host_dirty(FieldId f, std::uint64_t off, std::uint64_t len);
  /// Batched ranged mark over rows sorted ascending and disjoint: the
  /// host-dirty adds stay O(1) appends and the device-dirty supersede
  /// runs as one merged sweep (see DirtySpans::take_ranges) instead of
  /// one O(spans) rebuild per row — the halo unpack path.
  void mark_host_dirty_ranges(FieldId f, const std::vector<ByteRange>& rows);
  void mark_device_dirty(FieldId f) {
    Slot& s = slot(f);
    s.device_dirty.add_all(s.bytes);
    s.host_dirty.clear();
  }
  void mark_device_dirty(FieldId f, std::uint64_t off, std::uint64_t len);

  std::uint64_t host_dirty_bytes(FieldId f) const {
    return slot(f).host_dirty.bytes();
  }
  std::uint64_t device_dirty_bytes(FieldId f) const {
    return slot(f).device_dirty.bytes();
  }
  std::size_t host_dirty_spans(FieldId f) const {
    return slot(f).host_dirty.spans();
  }

  // --- `target update` verbs: move exactly the dirty bytes ---
  /// h2d of the field's host-dirty bytes; auto-maps a non-resident
  /// field (alloc + the full-field upload its dirt implies).  Returns
  /// bytes transferred.
  std::uint64_t update_to(FieldId f);
  /// h2d of the host-dirty bytes inside [off, off+len) only; bytes
  /// outside stay host-dirty.  Auto-maps a non-resident field (alloc
  /// only — just the range, not the whole field, then crosses).
  std::uint64_t update_to_range(FieldId f, std::uint64_t off,
                                std::uint64_t len);
  /// Row-batched variant: h2d of only the host-dirty bytes inside the
  /// given rows (sorted ascending, disjoint), priced as one transfer —
  /// the heterogeneous coal pass's device-shard upload (a freshly
  /// map_alloc'd field is fully host-dirty, so under per-launch
  /// regions this moves exactly the shard's rows).
  std::uint64_t update_to_ranges(FieldId f,
                                 const std::vector<ByteRange>& rows);
  /// d2h of the field's device-dirty bytes.  Returns bytes transferred.
  std::uint64_t update_from(FieldId f);
  /// d2h of the device-dirty bytes inside [off, off+len) only — the
  /// single-range form of update_from_ranges (the halo paths use the
  /// row-batched variants below).
  std::uint64_t update_from_range(FieldId f, std::uint64_t off,
                                  std::uint64_t len);
  /// Row-batched variant: d2h of only the device-dirty bytes inside
  /// the given rows (sorted ascending, disjoint), priced as one
  /// transfer (real ports copy a strip with one strided memcpy, not
  /// one call per row) — the halo send-strip flush.  No-op when not
  /// resident.
  std::uint64_t update_from_ranges(FieldId f,
                                   const std::vector<ByteRange>& rows);
  /// d2h every registered field's device-dirty bytes (the pre-snapshot
  /// flush); returns total bytes moved.
  std::uint64_t update_from_all();

  gpu::Device& device() noexcept { return *device_; }

 private:
  struct Slot {
    std::string name;
    std::uint64_t bytes = 0;
    bool resident = false;
    DirtySpans host_dirty;
    DirtySpans device_dirty;
  };
  Slot& slot(FieldId f);
  const Slot& slot(FieldId f) const;

  gpu::Device* device_;
  std::vector<Slot> slots_;
  std::uint64_t resident_bytes_ = 0;
};

}  // namespace wrf::mem
