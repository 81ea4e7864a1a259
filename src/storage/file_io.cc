#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <tuple>
#include <utility>

#include "common/fault_injector.h"

namespace bqs {

Status ErrnoStatus(std::string_view what) {
  const int err = errno;
  std::string message(what);
  message += ": ";
  message += std::strerror(err);
  if (err == ENOSPC) message.insert(0, "ENOSPC: ");
  return Status::IoError(message);
}

bool IsEnospc(const Status& status) {
  return !status.ok() && status.message().rfind("ENOSPC", 0) == 0;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return ErrnoStatus("open " + path);
  }
  Status st;
  struct stat info {};
  if (::fstat(fd, &info) != 0) {
    st = ErrnoStatus("stat " + path);
  } else {
    out->resize(static_cast<std::size_t>(info.st_size));
    std::size_t done = 0;
    while (done < out->size()) {
      const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        st = ErrnoStatus("read " + path);
        break;
      }
      if (n == 0) {
        st = Status::IoError("read " + path + ": file shrank while read");
        break;
      }
      done += static_cast<std::size_t>(n);
    }
  }
  (void)::close(fd);
  return st;
}

Status WriteFully(int fd, std::string_view bytes, std::string_view what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(what);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) return ErrnoStatus("open dir " + dir);
  Status st;
  if (::fsync(dirfd) != 0) st = ErrnoStatus("fsync dir " + dir);
  (void)::close(dirfd);
  return st;
}

Status WriteFileAtomic(const std::string& dir, const std::string& final_name,
                       std::string_view bytes, FaultInjector* injector,
                       const std::function<Status()>& crash_point) {
  const std::string tmp_path = dir + "/" + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;

  if (injector != nullptr && injector->ShouldFire(FaultSite::kEnospc)) {
    return Status::IoError("ENOSPC (injected): write " + tmp_path);
  }
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open " + tmp_path);
  Status st = WriteFully(fd, bytes, "write " + tmp_path);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync " + tmp_path);
  if (::close(fd) != 0 && st.ok()) st = ErrnoStatus("close " + tmp_path);
  if (!st.ok()) return st;

  if (crash_point) BQS_RETURN_NOT_OK(crash_point());  // temp durable

  if (injector != nullptr && injector->ShouldFire(FaultSite::kRenameFail)) {
    return Status::IoError("injected rename failure: " + tmp_path + " -> " +
                           final_path);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename " + tmp_path + " -> " + final_path);
  }

  if (crash_point) BQS_RETURN_NOT_OK(crash_point());  // renamed, dir not yet

  return FsyncDir(dir);
}

// --- numbered files -------------------------------------------------------

std::string NumberedFileName(FileFamily family, uint64_t number) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(number));
  std::string name(family.prefix);
  name += digits;
  name += family.suffix;
  return name;
}

bool ParseNumberedFileName(FileFamily family, std::string_view name,
                           uint64_t* number) {
  if (name.size() <= family.prefix.size() + family.suffix.size() ||
      !name.starts_with(family.prefix) || !name.ends_with(family.suffix)) {
    return false;
  }
  const std::string_view digits = name.substr(
      family.prefix.size(),
      name.size() - family.prefix.size() - family.suffix.size());
  if (digits.size() > 19) return false;  // 20 digits can overflow uint64
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *number = value;
  return true;
}

Result<NumberedListing> ListNumberedFiles(const std::string& dir,
                                          FileFamily family) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound("directory " + dir + " does not exist");
    }
    return Status::IoError("list " + dir + ": " + ec.message());
  }
  NumberedListing listing;
  // (alias, file): alias is false for the canonical spelling of the index.
  std::vector<std::pair<bool, NumberedFile>> found;
  for (const std::filesystem::directory_iterator end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    uint64_t index = 0;
    if (name.size() > 4 && name.ends_with(".tmp")) {
      listing.temps.push_back(it->path().string());
    } else if (ParseNumberedFileName(family, name, &index)) {
      found.emplace_back(name != NumberedFileName(family, index),
                         NumberedFile{index, it->path().string()});
    }
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());

  // Index order; per index the canonical name first, then by path.
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second.index, a.first, a.second.path) <
           std::tie(b.second.index, b.first, b.second.path);
  });
  for (auto& [alias, file] : found) {
    const bool repeat =
        !listing.files.empty() && listing.files.back().index == file.index;
    (repeat ? listing.duplicates : listing.files).push_back(std::move(file));
  }
  std::sort(listing.temps.begin(), listing.temps.end());
  return listing;
}

}  // namespace bqs
