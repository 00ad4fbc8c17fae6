#include "obs/logring.hpp"

namespace ripki::obs {

LogRing::LogRing(std::size_t capacity) : records_(capacity) {}

void LogRing::append(const LogRecord& record) {
  std::lock_guard lock(mutex_);
  records_.push(LogRecord(record));
  if (record.level == LogLevel::kError && dump_on_error_ != nullptr &&
      !error_dumped_) {
    error_dumped_ = true;
    *dump_on_error_ << "-- log flight recorder (first error) --\n";
    render_locked(*dump_on_error_);
  }
}

std::vector<LogRecord> LogRing::snapshot() const {
  std::lock_guard lock(mutex_);
  return records_.snapshot();
}

std::size_t LogRing::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

std::uint64_t LogRing::total() const {
  std::lock_guard lock(mutex_);
  return records_.total();
}

std::uint64_t LogRing::dropped() const {
  std::lock_guard lock(mutex_);
  return records_.dropped();
}

void LogRing::render_locked(std::ostream& os) const {
  os << "# last " << records_.size() << " of " << records_.total()
     << " records (" << records_.dropped() << " evicted)\n";
  records_.for_each([&os](const LogRecord& record) {
    os << Logger::format(record) << '\n';
  });
}

void LogRing::render(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  render_locked(os);
}

void LogRing::set_dump_on_error(std::ostream* os) {
  std::lock_guard lock(mutex_);
  dump_on_error_ = os;
}

void LogRing::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  error_dumped_ = false;
}

}  // namespace ripki::obs
