#include "io/snapshot_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace thetis {

namespace {

// A sibling of `path` no other writer uses: same directory (so the final
// rename(2) stays within one file system), unique per process and per
// writer within it.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> sequence{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

// Flushes a closed file's data (or a directory's entries) to stable
// storage.
bool SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

SnapshotWriter::SnapshotWriter(const std::string& path)
    : path_(path),
      temp_path_(TempPathFor(path)),
      out_(temp_path_, std::ios::binary | std::ios::trunc) {
  // A zeroed header placeholder; Finish() seeks back and fills it in once
  // the section table's location and checksum are known.
  SnapshotHeader header;
  std::memset(&header, 0, sizeof(header));
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  offset_ = sizeof(header);
}

Status SnapshotWriter::PadToAlignment() {
  static constexpr char kZeros[kSectionAlignment] = {};
  const uint64_t misalign = offset_ % kSectionAlignment;
  if (misalign != 0) {
    const uint64_t pad = kSectionAlignment - misalign;
    out_.write(kZeros, static_cast<std::streamsize>(pad));
    offset_ += pad;
  }
  return out_ ? Status::Ok()
              : Status::IoError("write to " + path_ + " failed");
}

namespace {

// Incremental twin of SnapshotChecksum: bytes are folded into 8-byte words
// as they complete ACROSS part boundaries (a short carry buffers the tail
// of each Update), so the final digest equals the one-shot checksum over
// the concatenated payload — the word framing must not restart per part.
class IncrementalChecksum {
 public:
  void Update(const void* data, size_t length) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    size_t i = 0;
    if (carry_len_ > 0) {
      while (carry_len_ < 8 && i < length) carry_[carry_len_++] = bytes[i++];
      if (carry_len_ < 8) return;  // still a partial word
      HashWord(carry_);
      carry_len_ = 0;
    }
    for (; i + 8 <= length; i += 8) HashWord(bytes + i);
    for (; i < length; ++i) carry_[carry_len_++] = bytes[i];
  }

  // Byte-wise tail, exactly as SnapshotChecksum ends.
  uint64_t Finish() {
    for (size_t i = 0; i < carry_len_; ++i) {
      h_ ^= carry_[i];
      h_ *= 0x100000001b3ull;
    }
    carry_len_ = 0;
    return h_;
  }

 private:
  void HashWord(const unsigned char* p) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    h_ ^= word;
    h_ *= 0x100000001b3ull;
  }

  uint64_t h_ = 0xcbf29ce484222325ull;
  unsigned char carry_[8];
  size_t carry_len_ = 0;
};

}  // namespace

Status SnapshotWriter::AppendSection(SectionKind kind, const void* data,
                                     size_t length) {
  SectionPart part{data, length};
  return AppendSectionParts(kind, std::span<const SectionPart>(&part, 1));
}

Status SnapshotWriter::AppendSectionParts(SectionKind kind,
                                          std::span<const SectionPart> parts) {
  if (finished_) {
    return Status::FailedPrecondition("snapshot writer already finished");
  }
  if (!out_) {
    return Status::IoError("cannot open " + path_ + " for writing");
  }
  for (const SectionEntry& entry : entries_) {
    if (entry.kind == static_cast<uint32_t>(kind)) {
      return Status::InvalidArgument("duplicate snapshot section kind " +
                                     std::to_string(entry.kind));
    }
  }
  THETIS_RETURN_NOT_OK(PadToAlignment());
  SectionEntry entry;
  entry.kind = static_cast<uint32_t>(kind);
  entry.reserved = 0;
  entry.offset = offset_;
  IncrementalChecksum checksum;
  uint64_t length = 0;
  for (const SectionPart& part : parts) {
    if (part.length == 0) continue;
    checksum.Update(part.data, part.length);
    out_.write(static_cast<const char*>(part.data),
               static_cast<std::streamsize>(part.length));
    length += part.length;
  }
  offset_ += length;
  entry.length = length;
  entry.checksum = checksum.Finish();
  if (!out_) return Status::IoError("write to " + path_ + " failed");
  entries_.push_back(entry);
  return Status::Ok();
}

Status SnapshotWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("snapshot writer already finished");
  }
  if (!out_) {
    return Status::IoError("cannot open " + path_ + " for writing");
  }
  THETIS_RETURN_NOT_OK(PadToAlignment());

  SnapshotHeader header;
  std::memset(&header, 0, sizeof(header));
  header.magic = kSnapshotMagic;
  header.version = kSnapshotVersion;
  header.endian = kEndianMarker;
  header.section_count = entries_.size();
  header.table_offset = offset_;
  const size_t table_bytes = entries_.size() * sizeof(SectionEntry);
  header.table_checksum = SnapshotChecksum(entries_.data(), table_bytes);
  if (table_bytes > 0) {
    out_.write(reinterpret_cast<const char*>(entries_.data()),
               static_cast<std::streamsize>(table_bytes));
    offset_ += table_bytes;
  }
  header.file_length = offset_;

  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.flush();
  if (!out_) return Status::IoError("write to " + path_ + " failed");
  out_.close();
  // Publish: durable bytes first, then the atomic rename over the final
  // path. A reader that mapped the previous file keeps its inode, so it
  // never sees the replacement's bytes (or a truncated file) under its
  // mapping.
  if (!SyncPath(temp_path_, O_RDONLY)) {
    return Status::IoError("fsync of " + temp_path_ + " failed");
  }
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IoError("rename of " + temp_path_ + " to " + path_ +
                           " failed: " + std::strerror(errno));
  }
  // Best effort: persist the directory entry too. The snapshot is already
  // complete and visible under its final name either way.
  SyncPath(DirectoryOf(path_), O_RDONLY | O_DIRECTORY);
  bytes_written_ = offset_;
  finished_ = true;
  return Status::Ok();
}

SnapshotWriter::~SnapshotWriter() {
  if (finished_) return;
  // Abandoned or failed write: the final path was never touched; drop the
  // partial temp file.
  out_.close();
  std::remove(temp_path_.c_str());
}

}  // namespace thetis
