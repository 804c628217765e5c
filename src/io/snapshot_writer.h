#ifndef THETIS_IO_SNAPSHOT_WRITER_H_
#define THETIS_IO_SNAPSHOT_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "io/snapshot_format.h"
#include "util/status.h"

namespace thetis {

// Streaming writer for the engine-snapshot format: appends sections one at
// a time (checksumming and aligning as it goes), then Finish() emits the
// section table and patches the header. Nothing is buffered beyond the
// section-table entries, so writing a multi-gigabyte snapshot needs no
// memory proportional to the data.
//
// The byte stream is a pure function of the appended (kind, bytes)
// sequence — no timestamps, no map iteration order — which is what lets
// the golden-file test pin the format byte for byte.
//
// The bytes go to a sibling temp file; Finish() fsyncs it and renames it
// over `path`. The final path therefore only ever holds a complete
// snapshot, and a process that has the previous file mmap'd (a server
// booted from it, a LoadedEngine) keeps reading the old inode instead of
// faulting on a file truncated under its mapping. A writer destroyed
// before a successful Finish() removes its temp file and leaves `path`
// as it was.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const std::string& path);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // Appends one section. Kinds must be unique per file.
  Status AppendSection(SectionKind kind, const void* data, size_t length);

  template <typename T>
  Status AppendArray(SectionKind kind, std::span<const T> values) {
    return AppendSection(kind, values.data(), values.size() * sizeof(T));
  }

  // One piece of a multi-part section payload.
  struct SectionPart {
    const void* data;
    size_t length;
  };

  // Appends one section whose payload is the in-order concatenation of
  // `parts`, streamed straight to the file with an incrementally computed
  // checksum — the emitted bytes and SectionEntry are identical to a
  // single AppendSection over a materialized concatenation, without the
  // intermediate buffer. This is how the sharded save writes one global
  // arena section from per-shard slices.
  Status AppendSectionParts(SectionKind kind,
                            std::span<const SectionPart> parts);

  template <typename T>
  static SectionPart Part(std::span<const T> values) {
    return SectionPart{values.data(), values.size() * sizeof(T)};
  }

  // Writes the section table, patches the header (file length, table
  // offset, table checksum), closes and fsyncs the temp file and renames
  // it over the final path. No appends after this.
  Status Finish();

  // Total bytes in the finished file (valid after Finish()).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Status PadToAlignment();

  std::string path_;
  std::string temp_path_;
  std::ofstream out_;
  std::vector<SectionEntry> entries_;
  uint64_t offset_ = 0;
  uint64_t bytes_written_ = 0;
  bool finished_ = false;
};

}  // namespace thetis

#endif  // THETIS_IO_SNAPSHOT_WRITER_H_
