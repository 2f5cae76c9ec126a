#include "tcr/telemetry/stream.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "tcr/guard/journal.hpp"
#include "tcr/report/json_reader.hpp"

namespace tcr::telemetry {

bool StreamReader::poll(std::vector<obs::Json>* out, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  // Pull in whatever the writer appended since the last poll. A missing or
  // empty file is "nothing yet", not an error — follow mode may start the
  // reader before the writer.
  restarted_ = false;
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0) {
      const auto dev = static_cast<std::uint64_t>(st.st_dev);
      const auto ino = static_cast<std::uint64_t>(st.st_ino);
      // A different file under the path, or one shorter than what was
      // already read: a new run replaced the stream. Start over.
      if (file_offset_ > 0 && (dev != dev_ || ino != ino_ ||
                               static_cast<std::uint64_t>(st.st_size) < file_offset_)) {
        buf_.clear();
        file_offset_ = 0;
        opened_ = false;
        records_read_ = 0;
        restarted_ = true;
      }
      dev_ = dev;
      ino_ = ino;
    }
    char chunk[1 << 16];
    for (;;) {
      const ssize_t got =
          ::pread(fd, chunk, sizeof(chunk), static_cast<off_t>(file_offset_));
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) {
        ::close(fd);
        return fail("I/O error reading '" + path_ + "'");
      }
      if (got == 0) break;
      buf_.append(chunk, static_cast<std::size_t>(got));
      file_offset_ += static_cast<std::uint64_t>(got);
    }
    ::close(fd);
  }

  if (!opened_) {
    if (buf_.size() < guard::kJournalMagicSize) {
      pending_tail_ = !buf_.empty();
      return true;
    }
    if (std::memcmp(buf_.data(), guard::kJournalMagic, guard::kJournalMagicSize) != 0) {
      return fail("'" + path_ + "' is not a heartbeat stream (bad magic at offset 0)");
    }
    buf_.erase(0, guard::kJournalMagicSize);
    opened_ = true;
  }

  bool bad_json = false;
  std::string parse_error;
  const guard::FrameScan scan = guard::decode_frames(
      buf_, static_cast<std::size_t>(file_offset_) - buf_.size(),
      [&](std::string_view payload) {
        obs::Json rec;
        if (!report::parse_json(payload, &rec, &parse_error)) {
          bad_json = true;
          return false;
        }
        if (out != nullptr) out->push_back(std::move(rec));
        ++records_read_;
        return true;
      });
  if (!scan.error.empty()) return fail("heartbeat stream '" + path_ + "': " + scan.error);
  if (bad_json) {
    return fail("heartbeat stream '" + path_ + "': record " + std::to_string(records_read_) +
                " is not JSON: " + parse_error);
  }
  buf_.erase(0, scan.consumed);
  pending_tail_ = !buf_.empty();
  return true;
}

}  // namespace tcr::telemetry
