// Filesystem helpers.
//
// Mrs deliberately has no distributed filesystem: it "can read and write to
// any filesystem supported by the kernel" (paper §IV-B).  Everything here
// is plain POSIX: whole-file read/write (atomic via rename), directory
// creation, and recursive enumeration — the last one matters because the
// paper's WordCount input (Project Gutenberg) lives in a nested directory
// tree that Hadoop's loader could not handle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mrs {

Result<std::string> ReadFileToString(const std::string& path);

/// pread from `fd` until `n` bytes are read or the file ends; returns the
/// number of bytes read.
Result<size_t> ReadAt(int fd, uint64_t offset, char* buf, size_t n);

/// Write via a temp file + rename so readers never see partial content.
/// Durable: the temp fd is fsync'ed before the rename (so a crash after
/// rename can never expose an empty or partial "atomically written" file)
/// and the parent directory is fsync'ed after it (so the rename itself
/// survives a crash).  For files that must survive a crash whole and that
/// nothing could rebuild: job output, the port file, hadoopsim's output
/// and shared-filesystem buckets.  Scratch data goes through WriteFile or
/// a SpillFile (fs/spill.h) instead, unsynced: spill runs and mock-parallel
/// rows are read only by the process that wrote them, and a lost one is
/// rebuilt through lineage; a generated corpus file is rewritten byte for
/// byte by rerunning its deterministic generator.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// Truncate `path` (creating it) and write `content`: no temp file and no
/// fsync, so a crash can leave it short.
Status WriteFile(const std::string& path, std::string_view content);

/// Test hook simulating crash-window failures inside WriteFileAtomic.
/// Called before each durability step with "fsync", "rename", or
/// "dirsync"; returning false makes that step fail with EIO.  Pass
/// nullptr to restore normal operation.  Tests only; not thread-safe.
void SetWriteFileAtomicFaultHook(bool (*hook)(const char* step));

Status AppendToFile(const std::string& path, std::string_view content);

/// mkdir -p.
Status EnsureDir(const std::string& path);

/// Recursively remove a directory tree (best-effort).
void RemoveTree(const std::string& path);

bool FileExists(const std::string& path);
bool IsDirectory(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);

/// All regular files under `root`, recursively, sorted lexicographically
/// for deterministic task splits.  Symlinks are not followed.
Result<std::vector<std::string>> ListFilesRecursive(const std::string& root);

/// Create a fresh unique directory under the system temp dir (or $TMPDIR),
/// named "<prefix>XXXXXX".
Result<std::string> MakeTempDir(const std::string& prefix);

/// Join path components with '/' (no normalization).
std::string JoinPath(std::string_view a, std::string_view b);

/// The directory part of `path`: "." for a bare name, "/" at the root.
std::string DirName(const std::string& path);

}  // namespace mrs
