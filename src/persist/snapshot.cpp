#include "persist/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/codec.hpp"

namespace sdl::persist {

namespace {

constexpr char kSnapMagic[8] = {'S', 'D', 'L', 'S', 'N', 'P', '1', '\n'};

bool write_fd_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string snapshot_file_name(std::uint64_t barrier_seq) {
  char buf[44];
  std::snprintf(buf, sizeof buf, "snap-%020llu.snap",
                static_cast<unsigned long long>(barrier_seq));
  return buf;
}

bool write_snapshot(const std::string& dir, std::uint32_t shard_count,
                    std::uint64_t barrier_seq,
                    const std::vector<std::pair<TupleId, Tuple>>& records,
                    FaultInjector* faults) {
  std::string payload;
  codec::put_u32(payload, shard_count);
  codec::put_u64(payload, barrier_seq);
  codec::put_varint(payload, records.size());
  for (const auto& [id, tuple] : records) {
    codec::put_u64(payload, id.bits());
    codec::put_tuple(payload, tuple);
  }

  std::string file(kSnapMagic, sizeof kSnapMagic);
  codec::put_u32(file, codec::crc32(payload.data(), payload.size()));
  file += payload;
  return write_snapshot_file(dir, barrier_seq, file, faults);
}

bool write_snapshot_file(const std::string& dir, std::uint64_t barrier_seq,
                         std::string_view file, FaultInjector* faults) {
  const std::string final_path = dir + "/" + snapshot_file_name(barrier_seq);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;

  if (faults != nullptr &&
      faults->decide(FaultPoint::SnapshotWrite) == FaultAction::Kill) {
    // Simulated crash mid-snapshot: a deterministic prefix reaches the
    // .tmp and the rename never happens — recovery must ignore it and
    // fall back to the previous snapshot (or none) plus the full WAL.
    const std::uint64_t torn =
        faults->jitter_us(static_cast<std::uint64_t>(file.size() - 1));
    write_fd_all(fd, file.data(), static_cast<std::size_t>(torn));
    ::close(fd);
    return false;
  }

  const bool wrote = write_fd_all(fd, file.data(), file.size());
  if (wrote) ::fsync(fd);
  ::close(fd);
  if (!wrote) {
    ::unlink(tmp_path.c_str());
    return false;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return false;
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

SnapshotReadResult read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SnapshotReadResult result;
    result.detail = "cannot open";
    return result;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("snapshot: read failed: " + path);
  return parse_snapshot(data);
}

SnapshotReadResult parse_snapshot(std::string_view data) {
  SnapshotReadResult result;
  if (data.size() < sizeof kSnapMagic + 4 ||
      std::memcmp(data.data(), kSnapMagic, sizeof kSnapMagic) != 0) {
    result.detail = "bad snapshot header";
    return result;
  }
  codec::Reader hr(data.data() + sizeof kSnapMagic, 4);
  const std::uint32_t crc = hr.get_u32();
  const char* payload = data.data() + sizeof kSnapMagic + 4;
  const std::size_t payload_size = data.size() - sizeof kSnapMagic - 4;
  if (codec::crc32(payload, payload_size) != crc) {
    result.detail = "snapshot crc mismatch";
    return result;
  }

  codec::Reader r(payload, payload_size);
  result.shard_count = r.get_u32();
  result.barrier_seq = r.get_u64();
  const std::uint64_t count = r.get_varint();
  if (!r.ok() || count > r.remaining()) {
    result.detail = "snapshot payload truncated";
    return result;
  }
  result.records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t bits = r.get_u64();
    Tuple t = r.get_tuple();
    if (!r.ok()) {
      result.records.clear();
      result.detail = "snapshot record undecodable";
      return result;
    }
    result.records.emplace_back(TupleId(static_cast<ProcessId>(bits >> 40), bits),
                                std::move(t));
  }
  if (!r.at_end()) {
    result.records.clear();
    result.detail = "snapshot trailing bytes";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace sdl::persist
