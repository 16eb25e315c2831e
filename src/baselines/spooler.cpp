#include "baselines/spooler.h"

#include "storage/storage_sink.h"

namespace ddbs {

void SpoolTable::add(SiteId for_site, const SpoolRecord& rec) {
  auto& per_item = spool_[for_site];
  auto it = per_item.find(rec.item);
  if (it == per_item.end() || it->second.rec.version < rec.version) {
    per_item[rec.item] = Entry{rec, 0};
    if (sink_ != nullptr) sink_->on_spool_add(for_site, rec);
  }
}

std::vector<SpoolRecord> SpoolTable::serve(SiteId site, uint64_t token) {
  std::vector<SpoolRecord> out;
  auto it = spool_.find(site);
  if (it == spool_.end()) return out;
  out.reserve(it->second.size());
  for (auto& [item, e] : it->second) {
    e.served = token;
    out.push_back(e.rec);
  }
  return out;
}

std::vector<SpoolRecord> SpoolTable::records_for(SiteId site,
                                                 uint64_t served) const {
  std::vector<SpoolRecord> out;
  auto it = spool_.find(site);
  if (it == spool_.end()) return out;
  for (const auto& [item, e] : it->second) {
    if (served == 0 || e.served != served) out.push_back(e.rec);
  }
  return out;
}

void SpoolTable::forget_served() {
  for (auto& [site, per_item] : spool_) {
    for (auto& [item, e] : per_item) e.served = 0;
  }
}

void SpoolTable::trim(SiteId site) {
  if (spool_.erase(site) > 0 && sink_ != nullptr) sink_->on_spool_trim(site);
}

size_t SpoolTable::total_records() const {
  size_t n = 0;
  for (const auto& [site, m] : spool_) n += m.size();
  return n;
}

size_t SpoolTable::records_count_for(SiteId site) const {
  auto it = spool_.find(site);
  return it == spool_.end() ? 0 : it->second.size();
}

} // namespace ddbs
