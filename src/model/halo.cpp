#include "model/halo.hpp"

#include "dyn/advection.hpp"
#include "obs/trace.hpp"

namespace wrf::model {

using grid::Side;

namespace {

constexpr int kSides = 4;

/// Legacy single-field tag: (sequence, side), used only by the blocking
/// convenience functions below (disjoint from HaloExchange tags only
/// within one test's traffic — don't mix the two on one RankCtx).
int tag_for(int seq, Side s) { return seq * kSides + static_cast<int>(s); }

/// The (i, k, j) iteration space of one halo strip, in buffer order.
exec::Range3 rect_range(const grid::Patch& patch, const grid::HaloRect& r) {
  return exec::Range3{r.i, patch.k, r.j};
}

/// Flat buffer slot of a cell within the strip (i fastest, then k, then
/// j — the legacy pack order, kept so message layout is unchanged).
std::size_t rect_slot(const grid::Patch& patch, const grid::HaloRect& r,
                      int i, int k, int j) {
  return (static_cast<std::size_t>(j - r.j.lo) * patch.k.size() +
          static_cast<std::size_t>(k - patch.k.lo)) *
             r.i.size() +
         static_cast<std::size_t>(i - r.i.lo);
}

exec::LaunchParams pack_params(const char* name) {
  exec::LaunchParams lp;
  lp.name = name;
  lp.collapse = 3;
  return lp;
}

std::vector<float> pack(exec::ExecSpace& ex, const Field3D<float>& q,
                        const grid::Patch& patch, const grid::HaloRect& r) {
  std::vector<float> buf(static_cast<std::size_t>(r.cells(patch.k.size())));
  ex.parallel_for(rect_range(patch, r), pack_params("halo_pack"),
                  [&](int i, int k, int j) {
                    buf[rect_slot(patch, r, i, k, j)] = q(i, k, j);
                  });
  return buf;
}

void unpack(exec::ExecSpace& ex, Field3D<float>& q, const grid::Patch& patch,
            const grid::HaloRect& r, const std::vector<float>& buf) {
  ex.parallel_for(rect_range(patch, r), pack_params("halo_unpack"),
                  [&](int i, int k, int j) {
                    q(i, k, j) = buf[rect_slot(patch, r, i, k, j)];
                  });
}

std::vector<float> pack_bins(exec::ExecSpace& ex, const Field4D<float>& q,
                             const grid::Patch& patch,
                             const grid::HaloRect& r) {
  const int nb = q.n();
  std::vector<float> buf(static_cast<std::size_t>(r.cells(patch.k.size())) *
                         nb);
  ex.parallel_for(rect_range(patch, r), pack_params("halo_pack_bins"),
                  [&](int i, int k, int j) {
                    const float* s = q.slice(i, k, j);
                    float* d = &buf[rect_slot(patch, r, i, k, j) * nb];
                    for (int b = 0; b < nb; ++b) d[b] = s[b];
                  });
  return buf;
}

/// Returns the live-bin hull of the strip it wrote (dyn::live_bin_hull
/// of the buffer), which is how a bin that is dead on this patch but
/// live in a neighbor's strip joins dyn::Rk3's hull.
Range unpack_bins(exec::ExecSpace& ex, Field4D<float>& q,
                  const grid::Patch& patch, const grid::HaloRect& r,
                  const std::vector<float>& buf) {
  const int nb = q.n();
  ex.parallel_for(rect_range(patch, r), pack_params("halo_unpack_bins"),
                  [&](int i, int k, int j) {
                    const float* s = &buf[rect_slot(patch, r, i, k, j) * nb];
                    float* d = q.slice(i, k, j);
                    for (int b = 0; b < nb; ++b) d[b] = s[b];
                  });
  return dyn::live_bin_hull(buf.data(), buf.size() / nb, nb);
}

}  // namespace

namespace {
/// Shared row walk of rect_rows/rect_rows_bins: one ByteRange of `len`
/// bytes per (k, j) row, offsets from `row_off(k, j)`, ascending in
/// memory order (the sorted-disjoint precondition of
/// DirtySpans::take_ranges).
template <typename RowOff>
std::vector<mem::ByteRange> strip_rows(const grid::Patch& patch,
                                       const grid::HaloRect& r,
                                       std::uint64_t len, RowOff row_off) {
  std::vector<mem::ByteRange> rows;
  if (len == 0) return rows;
  rows.reserve(static_cast<std::size_t>(r.j.size()) * patch.k.size());
  for (int j = r.j.lo; j <= r.j.hi; ++j) {
    for (int k = patch.k.lo; k <= patch.k.hi; ++k) {
      rows.push_back({row_off(k, j), len});
    }
  }
  return rows;
}
}  // namespace

std::vector<mem::ByteRange> rect_rows(const Field3D<float>& q,
                                      const grid::Patch& patch,
                                      const grid::HaloRect& r) {
  return strip_rows(
      patch, r, static_cast<std::uint64_t>(r.i.size()) * sizeof(float),
      [&](int k, int j) { return q.index(r.i.lo, k, j) * sizeof(float); });
}

std::vector<mem::ByteRange> rect_rows_bins(const Field4D<float>& q,
                                           const grid::Patch& patch,
                                           const grid::HaloRect& r) {
  return strip_rows(
      patch, r,
      static_cast<std::uint64_t>(r.i.size()) *
          static_cast<std::uint64_t>(q.n()) * sizeof(float),
      [&](int k, int j) { return q.index(0, r.i.lo, k, j) * sizeof(float); });
}

// ------------------------------------------------------------ HaloExchange

HaloExchange::HaloExchange(const grid::Patch& patch, exec::ExecSpace* ex)
    : patch_(patch), ex_(ex) {}

void HaloExchange::add(Field3D<float>* q, mem::FieldId rf) {
  if (q == nullptr) throw Error("HaloExchange::add: null field");
  if (fields() >= kMaxFields) throw Error("HaloExchange: too many fields");
  Entry e;
  e.f3 = q;
  e.rf = rf;
  if (rf != mem::kInvalidField) {
    for (int s = 0; s < kSides; ++s) {
      if (patch_.neighbor[s] < 0) continue;
      const auto side = static_cast<Side>(s);
      e.send_rows[static_cast<std::size_t>(s)] =
          rect_rows(*q, patch_, patch_.send_rect(side));
      e.recv_rows[static_cast<std::size_t>(s)] =
          rect_rows(*q, patch_, patch_.recv_rect(side));
    }
  }
  entries_.push_back(std::move(e));
  unpacked_.resize(entries_.size());
  for (int s = 0; s < kSides; ++s) {
    if (patch_.neighbor[s] < 0) continue;
    bytes_per_round_ +=
        static_cast<std::uint64_t>(
            patch_.send_rect(static_cast<Side>(s)).cells(patch_.k.size())) *
        sizeof(float);
  }
}

void HaloExchange::add_bins(Field4D<float>* q, mem::FieldId rf) {
  if (q == nullptr) throw Error("HaloExchange::add_bins: null field");
  if (fields() >= kMaxFields) throw Error("HaloExchange: too many fields");
  Entry e;
  e.f4 = q;
  e.rf = rf;
  if (rf != mem::kInvalidField) {
    for (int s = 0; s < kSides; ++s) {
      if (patch_.neighbor[s] < 0) continue;
      const auto side = static_cast<Side>(s);
      e.send_rows[static_cast<std::size_t>(s)] =
          rect_rows_bins(*q, patch_, patch_.send_rect(side));
      e.recv_rows[static_cast<std::size_t>(s)] =
          rect_rows_bins(*q, patch_, patch_.recv_rect(side));
    }
  }
  entries_.push_back(std::move(e));
  unpacked_.resize(entries_.size());
  for (int s = 0; s < kSides; ++s) {
    if (patch_.neighbor[s] < 0) continue;
    bytes_per_round_ +=
        static_cast<std::uint64_t>(
            patch_.send_rect(static_cast<Side>(s)).cells(patch_.k.size())) *
        q->n() * sizeof(float);
  }
}

void HaloExchange::begin(par::RankCtx& ctx) {
  if (in_flight_) {
    throw Error("HaloExchange::begin: previous round not finished");
  }
  OBS_SPAN("halo", "begin",
           {{"round", round_},
            {"bytes", bytes_per_round_},
            {"fields", fields()}});
  in_flight_ = true;
  exec::ExecSpace& space = ex_ != nullptr ? *ex_ : exec::serial();
  // All sends first (eager-buffered: posting order is deadlock-free),
  // field-major so every rank walks the same (field, side) schedule.
  for (int f = 0; f < fields(); ++f) {
    const Entry& e = entries_[static_cast<std::size_t>(f)];
    for (int s = 0; s < kSides; ++s) {
      const auto side = static_cast<Side>(s);
      const int nbr = patch_.neighbor[s];
      if (nbr < 0) continue;
      const grid::HaloRect rect = patch_.send_rect(side);
      if (region_ != nullptr && e.rf != mem::kInvalidField &&
          region_->device_dirty_bytes(e.rf) > 0) {
        // The pack reads host memory: flush the send strip's device-
        // computed bytes d2h first (only the device-dirty ones).  A
        // clean field skips entirely — the common case under host exec
        // spaces, where the coal pass already flushed.
        region_->update_from_ranges(e.rf,
                                    e.send_rows[static_cast<std::size_t>(s)]);
      }
      ctx.isend(nbr, tag(round_, f, side),
                e.f3 != nullptr ? pack(space, *e.f3, patch_, rect)
                                : pack_bins(space, *e.f4, patch_, rect));
    }
  }
  // Then every receive of the round, none waited on: the whole round is
  // in flight before any unpack.
  for (int f = 0; f < fields(); ++f) {
    for (int s = 0; s < kSides; ++s) {
      const auto side = static_cast<Side>(s);
      const int nbr = patch_.neighbor[s];
      if (nbr < 0) continue;
      // The neighbor tagged its message with the side *it* sent on.
      PostedRecv pr;
      pr.req = ctx.irecv(nbr, tag(round_, f, grid::opposite(side)));
      pr.field = f;
      pr.side = side;
      recvs_.push_back(pr);
    }
  }
}

void HaloExchange::finish(par::RankCtx& ctx) {
  if (!in_flight_) {
    throw Error("HaloExchange::finish: no round in flight");
  }
  obs::Span span(obs::active(), "halo", "finish",
                 {{"round", round_}, {"bytes", bytes_per_round_}});
  const double wait0 = obs::active() ? ctx.stats().wait_sec : 0.0;
  exec::ExecSpace& space = ex_ != nullptr ? *ex_ : exec::serial();
  unpacked_.assign(entries_.size(), Range{});
  // Drain in posting order (this is where overlap shows up as reduced
  // wait_sec); unpack rectangles are disjoint, order deterministic.
  for (auto& pr : recvs_) {
    const std::vector<float> buf = pr.req.wait();
    const auto f = static_cast<std::size_t>(pr.field);
    const Entry& e = entries_[f];
    const grid::HaloRect rect = patch_.recv_rect(pr.side);
    if (e.f3 != nullptr) {
      unpack(space, *e.f3, patch_, rect, buf);
    } else {
      unpacked_[f] = dyn::hull_union(
          unpacked_[f], unpack_bins(space, *e.f4, patch_, rect, buf));
    }
    if (region_ != nullptr && e.rf != mem::kInvalidField) {
      // The unpack wrote host memory: mark exactly the shell-strip rows
      // host-dirty — interior cells never re-transfer.  No eager h2d
      // push: coherence is pull-based, so the next device-consuming
      // pass's update_to ships the strips (once, batched per field)
      // exactly when a kernel actually reads them.
      region_->mark_host_dirty_ranges(
          e.rf, e.recv_rows[static_cast<std::size_t>(pr.side)]);
    }
  }
  recvs_.clear();
  ++round_;
  in_flight_ = false;
  if (obs::active() != nullptr) {
    span.arg("wait_us", static_cast<std::int64_t>(
                            (ctx.stats().wait_sec - wait0) * 1e6));
  }
}

// ------------------------------------------- single-field conveniences

void exchange_halo(par::RankCtx& ctx, const grid::Patch& patch,
                   Field3D<float>& q, int seq, exec::ExecSpace* ex) {
  exec::ExecSpace& space = ex != nullptr ? *ex : exec::serial();
  // Post all sends and receives first (nonblocking), then drain: the
  // one-field version of the HaloExchange round.
  std::vector<par::Request> reqs;
  for (int s = 0; s < kSides; ++s) {
    const auto side = static_cast<Side>(s);
    const int nbr = patch.neighbor[s];
    if (nbr < 0) continue;
    ctx.isend(nbr, tag_for(seq, side),
              pack(space, q, patch, patch.send_rect(side)));
  }
  for (int s = 0; s < kSides; ++s) {
    const auto side = static_cast<Side>(s);
    const int nbr = patch.neighbor[s];
    if (nbr < 0) continue;
    reqs.push_back(ctx.irecv(nbr, tag_for(seq, grid::opposite(side))));
  }
  std::size_t r = 0;
  for (int s = 0; s < kSides; ++s) {
    const auto side = static_cast<Side>(s);
    if (patch.neighbor[s] < 0) continue;
    unpack(space, q, patch, patch.recv_rect(side), reqs[r++].wait());
  }
}

void exchange_halo_bins(par::RankCtx& ctx, const grid::Patch& patch,
                        Field4D<float>& q, int seq, exec::ExecSpace* ex) {
  exec::ExecSpace& space = ex != nullptr ? *ex : exec::serial();
  std::vector<par::Request> reqs;
  for (int s = 0; s < kSides; ++s) {
    const auto side = static_cast<Side>(s);
    const int nbr = patch.neighbor[s];
    if (nbr < 0) continue;
    ctx.isend(nbr, tag_for(seq, side),
              pack_bins(space, q, patch, patch.send_rect(side)));
  }
  for (int s = 0; s < kSides; ++s) {
    const auto side = static_cast<Side>(s);
    const int nbr = patch.neighbor[s];
    if (nbr < 0) continue;
    reqs.push_back(ctx.irecv(nbr, tag_for(seq, grid::opposite(side))));
  }
  std::size_t r = 0;
  for (int s = 0; s < kSides; ++s) {
    const auto side = static_cast<Side>(s);
    if (patch.neighbor[s] < 0) continue;
    unpack_bins(space, q, patch, patch.recv_rect(side), reqs[r++].wait());
  }
}

std::uint64_t halo_bytes_per_exchange(const grid::Patch& patch, int nk,
                                      int nfields3d, int nfields4d,
                                      int nkr) {
  std::uint64_t cells = 0;
  for (int s = 0; s < kSides; ++s) {
    if (patch.neighbor[s] < 0) continue;
    cells += static_cast<std::uint64_t>(
        patch.send_rect(static_cast<Side>(s)).cells(nk));
  }
  return cells * sizeof(float) *
         (static_cast<std::uint64_t>(nfields3d) +
          static_cast<std::uint64_t>(nfields4d) * nkr);
}

}  // namespace wrf::model
