#pragma once
// Halo exchange between neighboring patches over simpi.
//
// WRF's HALO_* registry generates pack/exchange/unpack code per field
// set; here the same job is done generically for Field3D/Field4D by a
// `HaloExchange` plan object built once per rank from the patch and the
// registered field set.  One exchange round is two phases:
//
//   begin()  — pack every field's send strips (via ExecSpace) and post
//              all isends and irecvs for the round: qv and every bin
//              field in one round, nothing waited on;
//   finish() — wait_all on the receives and unpack.
//
// Device residency (res=persist): when a mem::DataRegion is bound, the
// exchange is where host and device copies genuinely trade bytes in a
// device-resident port — `begin` flushes the device-dirty send strips
// d2h before packing them, and `finish` marks exactly the unpacked
// shell-strip rows host-dirty at strip-row granularity, so the next
// device-consuming pass pulls only those rows h2d and interior cells
// never re-transfer.
//
// Between the two phases the caller may compute on interior cells (the
// comms/compute overlap of dyn::Rk3 under halo=overlap); calling them
// back to back is the classic blocking exchange.  The protocol is
// deadlock-free with simpi's buffered sends, and message tags are a
// pure function of (round, field, side) — bounded, with no per-step
// "sequence counter" growth — so rounds may proceed without a barrier:
// simpi's non-overtaking rule keeps same-tag messages from consecutive
// rounds ordered, and the round parity in the tag keeps the tag space
// finite.

#include <array>
#include <cstdint>
#include <vector>

#include "exec/exec.hpp"
#include "grid/decomp.hpp"
#include "mem/residency.hpp"
#include "par/simpi.hpp"
#include "util/field.hpp"

namespace wrf::model {

/// Per-rank halo-exchange plan for a fixed field set.
class HaloExchange {
 public:
  /// Pack/unpack loops dispatch through `ex` (nullptr = serial); every
  /// buffer slot is written by exactly one cell, so any execution space
  /// is safe.
  explicit HaloExchange(const grid::Patch& patch,
                        exec::ExecSpace* ex = nullptr);

  /// Register fields.  Registration order defines the field index used
  /// in tags, so every rank must register the same set in the same
  /// order.  Pointers must stay valid for the plan's lifetime.
  /// `rf` is the field's registration in a bound device data region
  /// (kInvalidField when the field is not device-resident).
  void add(Field3D<float>* q, mem::FieldId rf = mem::kInvalidField);
  void add_bins(Field4D<float>* q, mem::FieldId rf = mem::kInvalidField);

  /// Bind the device data region dirty marks flow through (res=persist).
  /// nullptr (the default) disables residency accounting entirely.
  void set_region(mem::DataRegion* region) noexcept { region_ = region; }

  int fields() const noexcept { return static_cast<int>(entries_.size()); }

  /// Phase 1: pack and post all isends, then post all irecvs, for every
  /// registered field — one round, nothing blocking.
  void begin(par::RankCtx& ctx);

  /// Phase 2: wait for all receives of the round and unpack them.
  void finish(par::RankCtx& ctx);

  /// Live-bin hull (dyn::live_bin_hull) of everything the last finish()
  /// unpacked into bin field `field` (registration index); empty for a
  /// 3-D field or when no strip carried a non-zero bit pattern.
  Range unpacked_bins(int field) const {
    return unpacked_[static_cast<std::size_t>(field)];
  }

  bool in_flight() const noexcept { return in_flight_; }
  int rounds() const noexcept { return round_; }

  /// Bytes this rank sends in one begin() (interior sides only).
  std::uint64_t bytes_per_round() const noexcept { return bytes_per_round_; }

  /// Message tag for (round, field, side): bounded and bijective over
  /// the in-flight window (at most two rounds can coexist, so round
  /// parity suffices to keep consecutive rounds' tags distinct).
  static int tag(int round, int field, grid::Side side) noexcept {
    return ((round & 1) * kMaxFields + field) * 4 + static_cast<int>(side);
  }
  static constexpr int kMaxFields = 64;

 private:
  struct Entry {
    Field3D<float>* f3 = nullptr;
    Field4D<float>* f4 = nullptr;
    mem::FieldId rf = mem::kInvalidField;  ///< data-region registration
    /// Residency strip rows per side, precomputed at registration (the
    /// rects and field geometry are fixed for the plan's lifetime):
    /// send-rect rows flushed d2h in begin(), recv-rect rows marked
    /// host-dirty in finish() (pull-based — the next consuming pass's
    /// update_to ships them).  Empty unless rf is valid and the side
    /// has a neighbor.
    std::array<std::vector<mem::ByteRange>, 4> send_rows;
    std::array<std::vector<mem::ByteRange>, 4> recv_rows;
  };
  struct PostedRecv {
    par::Request req;
    int field = 0;
    grid::Side side = grid::Side::kWest;  ///< side we receive on
  };

  grid::Patch patch_;
  exec::ExecSpace* ex_;
  mem::DataRegion* region_ = nullptr;
  std::vector<Entry> entries_;
  std::vector<PostedRecv> recvs_;  ///< the round's receives, posting order
  std::vector<Range> unpacked_;    ///< per field: last finish()'s bin hull
  std::uint64_t bytes_per_round_ = 0;
  int round_ = 0;
  bool in_flight_ = false;
};

/// Exchange one 3-D field's halos with all interior neighbors,
/// blocking.  `seq` must be unique per field within one exchange round.
/// Single-field convenience kept for tests; the model driver exchanges
/// its whole field set through a HaloExchange plan.
void exchange_halo(par::RankCtx& ctx, const grid::Patch& patch,
                   Field3D<float>& q, int seq,
                   exec::ExecSpace* ex = nullptr);

/// Exchange one 4-D (bin) field's halos, blocking.
void exchange_halo_bins(par::RankCtx& ctx, const grid::Patch& patch,
                        Field4D<float>& q, int seq,
                        exec::ExecSpace* ex = nullptr);

/// Bytes one rank sends per full exchange of the given field shapes —
/// used by the communication model without running the exchange.
std::uint64_t halo_bytes_per_exchange(const grid::Patch& patch, int nk,
                                      int nfields3d, int nfields4d, int nkr);

/// Byte ranges — one per (k, j) row — of a halo rectangle within a
/// field's storage: the strip granularity of residency dirty marking.
/// Rows ascend in memory order, so DirtySpans inserts stay O(1) and
/// adjacent rows of j-contiguous strips coalesce.
std::vector<mem::ByteRange> rect_rows(const Field3D<float>& q,
                                      const grid::Patch& patch,
                                      const grid::HaloRect& r);
std::vector<mem::ByteRange> rect_rows_bins(const Field4D<float>& q,
                                           const grid::Patch& patch,
                                           const grid::HaloRect& r);

}  // namespace wrf::model
