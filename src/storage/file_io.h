// The one file layer under the storage modules. The WAL, the MANIFEST and
// the compactor make the same file-handling decisions, and each is made
// here once:
//
//   * errno -> Status, with disk-full tagged so IsEnospc() classifies it
//     wherever it struck (WAL write, block publication, manifest);
//   * whole-file reads (NotFound only when the file does not exist);
//   * the write-all loop (EINTR retried) and the directory fsync;
//   * atomic publication: temp file, fsync, rename, directory fsync;
//   * numbered file names ("wal-000001.log", "blk-000001.bqb") and the
//     directory listing that finds them, sorted, with one file per number
//     and "*.tmp" debris set apart.
//
// Only this layer may open streams, open directories or rename (the
// repo_lint file-io-containment rule), so a private copy of any of these
// rules cannot grow back beside it.
#ifndef BQS_STORAGE_FILE_IO_H_
#define BQS_STORAGE_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)

/// IoError for the current errno, as "`what`: strerror". Disk-full gets an
/// "ENOSPC: " prefix so IsEnospc() recognises it.
Status ErrnoStatus(std::string_view what);

/// True when a status smells like disk-full: ErrnoStatus() on ENOSPC and
/// injected kEnospc firings alike (both prefix "ENOSPC").
bool IsEnospc(const Status& status);

/// Reads the whole file at `path` into `out`. NotFound when the file does
/// not exist, IoError for any other failure.
Status ReadFileBytes(const std::string& path, std::string* out);

/// A file image read by ReadFileBytes, as the bytes the decoders take.
inline std::span<const uint8_t> AsBytes(const std::string& image) {
  return {reinterpret_cast<const uint8_t*>(image.data()), image.size()};
}

/// write(2)s all of `bytes` to `fd`, retrying EINTR. `what` names the
/// target in the error.
Status WriteFully(int fd, std::string_view bytes, std::string_view what);

/// fsyncs the directory itself, making its entries (new names, renames,
/// unlinks) durable. Callers for which it is only best-effort discard the
/// status.
Status FsyncDir(const std::string& dir);

/// Writes `bytes` as `dir`/`final_name` atomically: write `final_name`.tmp,
/// fsync it, rename over `final_name`, fsync the directory. Consults the
/// fault injector's kEnospc site before the write and kRenameFail at the
/// rename. `crash_point`, when set, is invoked after the temp file is
/// durable and again after the rename — the compactor's crash gate aborts
/// there to simulate dying between sub-steps.
Status WriteFileAtomic(const std::string& dir, const std::string& final_name,
                       std::string_view bytes, FaultInjector* injector,
                       const std::function<Status()>& crash_point = {});

// --- numbered files -------------------------------------------------------

/// A family of numbered files: prefix, zero-padded number, suffix.
struct FileFamily {
  std::string_view prefix;
  std::string_view suffix;
};

inline constexpr FileFamily kWalSegmentFiles{"wal-", ".log"};
inline constexpr FileFamily kBlockFiles{"blk-", ".bqb"};

/// The canonical name: at least six digits ("wal-000001.log").
std::string NumberedFileName(FileFamily family, uint64_t number);

/// Parses a family name with any digit count (1 to 19) into its number;
/// false for every other name — temp files, other families, foreign files.
bool ParseNumberedFileName(FileFamily family, std::string_view name,
                           uint64_t* number);

/// One numbered file found in a directory.
struct NumberedFile {
  uint64_t index = 0;
  std::string path;
};

/// What ListNumberedFiles() found. Foreign names are left out.
struct NumberedListing {
  /// Sorted by index, one file per index. When several names parse to the
  /// same index ("wal-1.log" beside "wal-000001.log"), the canonical name
  /// wins, else the lexicographically smallest path — the same file on
  /// every filesystem, whatever order the directory yields.
  std::vector<NumberedFile> files;
  /// The other names of an index in `files`, sorted by (index, path).
  std::vector<NumberedFile> duplicates;
  /// "*.tmp" files — debris of a crashed atomic publication — sorted.
  std::vector<std::string> temps;
};

/// Lists `family`'s files in `dir`. NotFound when `dir` does not exist.
Result<NumberedListing> ListNumberedFiles(const std::string& dir,
                                          FileFamily family);

}  // namespace bqs

#endif  // BQS_STORAGE_FILE_IO_H_
