#include "mem/residency.hpp"

#include <algorithm>

#include "gpu/device.hpp"
#include "obs/trace.hpp"

namespace wrf::mem {

namespace {

/// One "region" instant per DataRegion verb that actually moved bytes:
/// field name, direction, byte count, and how many dirty spans the copy
/// coalesced.  The byte-level "xfer" event the Device emits underneath
/// stays the reconciliation source; this adds the field-level context.
void note_region(obs::TraceSink* sink, const char* dir,
                 const std::string& field, std::uint64_t bytes,
                 std::size_t spans) {
  if (sink == nullptr || bytes == 0) return;
  sink->instant("region", field,
                {{"dir", dir}, {"bytes", bytes}, {"spans", spans}});
}

}  // namespace

// ------------------------------------------------------------ DirtySpans

void DirtySpans::add(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t end = off + len;
  if (!spans_.empty()) {
    auto& back = spans_.back();
    if (off >= back.first && off <= back.second) {
      // Ascending-order fast path: extend the last interval in place.
      back.second = std::max(back.second, end);
      return;
    }
    // Appending past the last interval keeps the set sorted; an insert
    // behind it needs a normalize() before the next query.
    if (off < back.first) normalized_ = false;
  }
  spans_.emplace_back(off, end);
}

void DirtySpans::clear() {
  spans_.clear();
  normalized_ = true;
}

void DirtySpans::normalize() const {
  if (normalized_) return;
  std::sort(spans_.begin(), spans_.end());
  std::size_t out = 0;
  for (std::size_t n = 1; n < spans_.size(); ++n) {
    if (spans_[n].first <= spans_[out].second) {
      spans_[out].second = std::max(spans_[out].second, spans_[n].second);
    } else {
      spans_[++out] = spans_[n];
    }
  }
  spans_.resize(out + 1);
  normalized_ = true;
}

std::uint64_t DirtySpans::bytes() const {
  normalize();
  std::uint64_t total = 0;
  for (const auto& s : spans_) total += s.second - s.first;
  return total;
}

std::size_t DirtySpans::spans() const {
  normalize();
  return spans_.size();
}

std::uint64_t DirtySpans::take_range(std::uint64_t off, std::uint64_t len) {
  if (len == 0 || spans_.empty()) return 0;
  normalize();
  const std::uint64_t end = off + len;
  std::uint64_t taken = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
  kept.reserve(spans_.size() + 1);
  for (const auto& s : spans_) {
    const std::uint64_t lo = std::max(s.first, off);
    const std::uint64_t hi = std::min(s.second, end);
    if (lo >= hi) {
      kept.push_back(s);
      continue;
    }
    taken += hi - lo;
    if (s.first < lo) kept.emplace_back(s.first, lo);
    if (hi < s.second) kept.emplace_back(hi, s.second);
  }
  spans_ = std::move(kept);
  return taken;
}

std::uint64_t DirtySpans::take_ranges(const std::vector<ByteRange>& rows) {
  if (rows.empty() || spans_.empty()) return 0;
  normalize();
  std::uint64_t taken = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
  kept.reserve(spans_.size());
  std::size_t r = 0;
  for (const auto& s : spans_) {
    std::uint64_t cur = s.first;
    while (cur < s.second) {
      // Skip rows that end at or before the sweep position.
      while (r < rows.size() && rows[r].off + rows[r].len <= cur) ++r;
      if (r == rows.size() || rows[r].off >= s.second) {
        kept.emplace_back(cur, s.second);
        break;
      }
      const std::uint64_t lo = std::max(cur, rows[r].off);
      const std::uint64_t hi = std::min(s.second, rows[r].off + rows[r].len);
      if (cur < lo) kept.emplace_back(cur, lo);
      taken += hi - lo;
      cur = hi;
      // Leave `r` in place: the row may extend into the next span.
    }
  }
  spans_ = std::move(kept);
  return taken;
}

std::uint64_t DirtySpans::take_all() {
  const std::uint64_t total = bytes();
  clear();
  return total;
}

// ------------------------------------------------------------ DataRegion

DataRegion::DataRegion(gpu::Device& device) : device_(&device) {}

DataRegion::~DataRegion() {
  for (FieldId f = 0; f < fields(); ++f) {
    if (slots_[static_cast<std::size_t>(f)].resident) unmap(f);
  }
}

DataRegion::Slot& DataRegion::slot(FieldId f) {
  if (f < 0 || f >= fields()) {
    throw Error("DataRegion: invalid field id " + std::to_string(f));
  }
  return slots_[static_cast<std::size_t>(f)];
}

const DataRegion::Slot& DataRegion::slot(FieldId f) const {
  return const_cast<DataRegion*>(this)->slot(f);
}

FieldId DataRegion::add_field(std::string name, std::uint64_t bytes) {
  Slot s;
  s.name = std::move(name);
  s.bytes = bytes;
  s.host_dirty.add_all(bytes);  // host copy is the only copy so far
  slots_.push_back(std::move(s));
  return fields() - 1;
}

void DataRegion::map_alloc(FieldId f) {
  Slot& s = slot(f);
  if (s.resident) return;  // presence semantics: double-map is a no-op
  device_->alloc_named(s.name, s.bytes);
  s.resident = true;
  resident_bytes_ += s.bytes;
  s.host_dirty.add_all(s.bytes);  // device copy undefined until update_to
  s.device_dirty.clear();
}

void DataRegion::map_to(FieldId f) {
  map_alloc(f);
  Slot& s = slot(f);
  note_region(obs::active(), "h2d", s.name, s.bytes, 1);
  device_->update_to(s.bytes);
  // The full h2d copy makes both sides agree: pending marks on either
  // side are superseded (a stale device-dirty range must not survive a
  // map(to:) that just overwrote the device copy).
  s.host_dirty.clear();
  s.device_dirty.clear();
}

void DataRegion::map_from(FieldId f) {
  Slot& s = slot(f);
  if (!s.resident) {
    throw Error("DataRegion: map_from of non-resident field '" + s.name + "'");
  }
  note_region(obs::active(), "d2h", s.name, s.bytes, 1);
  device_->update_from(s.bytes);
  // Same agreement rule, d2h direction: the copy overwrites the host
  // buffer, so pending host-dirty marks are superseded too.
  s.device_dirty.clear();
  s.host_dirty.clear();
}

void DataRegion::unmap(FieldId f) {
  Slot& s = slot(f);
  if (!s.resident) return;
  device_->free_named(s.name);
  s.resident = false;
  resident_bytes_ -= s.bytes;
  s.host_dirty.add_all(s.bytes);  // host copy is the only one again
  s.device_dirty.clear();
}

void DataRegion::unmap_all() {
  for (FieldId f = 0; f < fields(); ++f) unmap(f);
}

void DataRegion::mark_host_dirty(FieldId f, std::uint64_t off,
                                 std::uint64_t len) {
  Slot& s = slot(f);
  s.host_dirty.add(off, len);
  s.device_dirty.take_range(off, len);  // superseded by the host write
}

void DataRegion::mark_device_dirty(FieldId f, std::uint64_t off,
                                   std::uint64_t len) {
  Slot& s = slot(f);
  s.device_dirty.add(off, len);
  s.host_dirty.take_range(off, len);  // superseded by the device write
}

void DataRegion::mark_host_dirty_ranges(FieldId f,
                                        const std::vector<ByteRange>& rows) {
  Slot& s = slot(f);
  for (const ByteRange& r : rows) s.host_dirty.add(r.off, r.len);
  s.device_dirty.take_ranges(rows);  // superseded by the host writes
}

std::uint64_t DataRegion::update_to(FieldId f) {
  Slot& s = slot(f);
  if (!s.resident) map_alloc(f);
  obs::TraceSink* sink = obs::active();
  const std::size_t spans = sink ? s.host_dirty.spans() : 0;
  const std::uint64_t bytes = s.host_dirty.take_all();
  if (bytes > 0) {
    note_region(sink, "h2d", s.name, bytes, spans);
    device_->update_to(bytes);
  }
  return bytes;
}

std::uint64_t DataRegion::update_to_range(FieldId f, std::uint64_t off,
                                          std::uint64_t len) {
  Slot& s = slot(f);
  if (!s.resident) map_alloc(f);
  obs::TraceSink* sink = obs::active();
  const std::size_t spans = sink ? s.host_dirty.spans() : 0;
  const std::uint64_t bytes = s.host_dirty.take_range(off, len);
  if (bytes > 0) {
    note_region(sink, "h2d", s.name, bytes, spans);
    device_->update_to(bytes);
  }
  return bytes;
}

std::uint64_t DataRegion::update_to_ranges(FieldId f,
                                           const std::vector<ByteRange>& rows) {
  Slot& s = slot(f);
  if (!s.resident) map_alloc(f);
  obs::TraceSink* sink = obs::active();
  const std::size_t spans = sink ? s.host_dirty.spans() : 0;
  const std::uint64_t bytes = s.host_dirty.take_ranges(rows);
  if (bytes > 0) {
    note_region(sink, "h2d", s.name, bytes, spans);
    device_->update_to(bytes);
  }
  return bytes;
}

std::uint64_t DataRegion::update_from(FieldId f) {
  Slot& s = slot(f);
  obs::TraceSink* sink = obs::active();
  const std::size_t spans = sink ? s.device_dirty.spans() : 0;
  const std::uint64_t bytes = s.device_dirty.take_all();
  if (bytes > 0) {
    note_region(sink, "d2h", s.name, bytes, spans);
    device_->update_from(bytes);
  }
  return bytes;
}

std::uint64_t DataRegion::update_from_range(FieldId f, std::uint64_t off,
                                            std::uint64_t len) {
  Slot& s = slot(f);
  obs::TraceSink* sink = obs::active();
  const std::size_t spans = sink ? s.device_dirty.spans() : 0;
  const std::uint64_t bytes = s.device_dirty.take_range(off, len);
  if (bytes > 0) {
    note_region(sink, "d2h", s.name, bytes, spans);
    device_->update_from(bytes);
  }
  return bytes;
}

std::uint64_t DataRegion::update_from_ranges(
    FieldId f, const std::vector<ByteRange>& rows) {
  Slot& s = slot(f);
  if (!s.resident) return 0;
  obs::TraceSink* sink = obs::active();
  const std::size_t spans = sink ? s.device_dirty.spans() : 0;
  const std::uint64_t bytes = s.device_dirty.take_ranges(rows);
  if (bytes > 0) {
    note_region(sink, "d2h", s.name, bytes, spans);
    device_->update_from(bytes);
  }
  return bytes;
}

std::uint64_t DataRegion::update_from_all() {
  std::uint64_t total = 0;
  for (FieldId f = 0; f < fields(); ++f) total += update_from(f);
  return total;
}

}  // namespace wrf::mem
