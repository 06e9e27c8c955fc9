// Durable campaign-service checkpoints (DESIGN.md §14).
//
// File framing mirrors src/nn/serialize: a text payload starting with a
// magic + version line (`agebo-svc-ckpt v1`) and ending with a trailing
// `checksum <fnv1a64-hex>` line over every byte before it, so truncation
// and corruption are detected at load instead of producing a silently
// wrong resume. Files are written atomically (tmp file in the same
// directory + rename) so a crash mid-write leaves the previous checkpoint
// intact — the property the crash-mid-campaign test relies on.
//
// The payload itself is assembled by CampaignRegistry::save_checkpoint
// from the shared line-oriented state dialect (common/state_io): an executor
// snapshot blob, per-tenant scheduler state, and one state blob per
// campaign (AgeboSearch/ShaJointSearch::save_state). This header carries
// only the framing + file plumbing, shared with tests.
#pragma once

#include <cstdint>
#include <string>

namespace agebo::svc {

inline constexpr const char* kCheckpointMagic = "agebo-svc-ckpt";
inline constexpr int kCheckpointVersion = 1;

/// FNV-1a 64-bit over `bytes` (same hash as the nn artifact framing).
std::uint64_t fnv1a64(const std::string& bytes);

/// 16-hex-digit form of fnv1a64 — what the checksum line records.
std::string checksum_hex(const std::string& bytes);

/// payload + "checksum <hex>\n".
std::string with_checksum(const std::string& payload);

/// Splits off and verifies the trailing checksum line; returns the
/// payload. Throws std::runtime_error on a missing or mismatched checksum
/// (truncated or corrupted checkpoint).
std::string verify_checksum(const std::string& text, const std::string& what);

/// Write `contents` to `path` atomically: tmp file in the same directory,
/// flushed, then renamed over the target. Throws std::runtime_error on any
/// I/O failure (the tmp file is removed on error).
void atomic_write_file(const std::string& path, const std::string& contents);

/// Slurp a file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace agebo::svc
