#pragma once
// Transport framing for the serve protocol over a byte stream.
//
// RCRQ/RCRS frames are self-describing but not self-delimiting: decode_*
// in src/serve/protocol.hpp requires the complete frame, and nothing in
// the frame's first bytes announces its total length (v2 body frames in
// particular are header + raw pieces + trailer). TCP gives us a byte
// stream with arbitrary segmentation, so the transport prepends a u32
// little-endian length to every protocol frame:
//
//     [len u32 LE][protocol frame, exactly `len` bytes]
//
// FrameReader reassembles these incrementally. It is deliberately dumb:
// feed() takes whatever bytes arrived (one byte at a time is fine — a TCP
// segment boundary mid-header must never surface as bad_frame), or a
// caller receives straight into recv_window() and commit()s the count;
// next() pops a complete protocol frame when one is buffered. Length
// bounds are enforced as soon as the 4-byte prefix is complete so a
// malicious peer cannot make us buffer unbounded garbage.

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/error.hpp"
#include "util/ints.hpp"

namespace recoil::net {

/// Bound on a single transport frame. Generous vs the serve layer's
/// kDefaultMaxFrameBytes (1 MiB): v1 materialized responses can exceed the
/// streaming frame budget, so the transport cap only guards against
/// absurdity, not normal big assets.
inline constexpr u32 kMaxTransportFrame = 256u * 1024 * 1024;

/// The u32 LE length prefix of a `frame_size`-byte frame. Throws
/// NetError{frame_too_large} for a frame over the transport cap.
inline std::array<u8, 4> net_prefix(u64 frame_size) {
    if (frame_size > kMaxTransportFrame)
        net_fail(NetErrorCode::frame_too_large,
                 "outbound frame of " + std::to_string(frame_size) +
                     " bytes exceeds transport cap");
    const u32 len = static_cast<u32>(frame_size);
    return {static_cast<u8>(len & 0xff), static_cast<u8>((len >> 8) & 0xff),
            static_cast<u8>((len >> 16) & 0xff), static_cast<u8>((len >> 24) & 0xff)};
}

/// Append `frame` to `out` with the u32 LE length prefix.
inline void append_net_frame(std::vector<u8>& out, std::span<const u8> frame) {
    const auto prefix = net_prefix(frame.size());
    out.insert(out.end(), prefix.begin(), prefix.end());
    out.insert(out.end(), frame.begin(), frame.end());
}

/// Incremental reassembler for length-prefixed frames. Each frame is
/// received into a buffer of its own and handed out by move. A caller that
/// receives straight into recv_window() copies no byte itself; that path
/// reserves the frame's announced length up front, so it is for peers whose
/// announcements are trusted to be followed by the bytes (a client reading
/// its server). feed() copies what arrived and grows the buffer only by
/// that, so a prefix announcing a large frame costs nothing until its bytes
/// come. Either rejects a frame the moment its announced length exceeds the
/// cap.
class FrameReader {
public:
    explicit FrameReader(u32 max_frame = kMaxTransportFrame)
        : max_frame_(max_frame) {}

    /// Where the next received bytes belong: the rest of the length prefix,
    /// or a stretch of the announced frame not yet filled. Never empty.
    std::span<u8> recv_window() {
        if (prefix_fill_ == 4 && frame_.capacity() < len_) frame_.reserve(len_);
        // As much as has arrived, between kMinWindow and kMaxWindow: a
        // window that stays in cache keeps the zero-fill of the fresh
        // stretch cheap just before the kernel writes over it.
        return window(std::clamp(frame_fill_, kMinWindow, kMaxWindow));
    }

    /// Account for `n` bytes just written at the start of recv_window().
    /// Throws NetError{frame_too_large} as soon as a completed prefix
    /// announces a frame above the cap.
    void commit(std::size_t n) {
        if (prefix_fill_ < 4) {
            prefix_fill_ += n;
            if (prefix_fill_ < 4) return;
            len_ = static_cast<u32>(prefix_[0]) | (static_cast<u32>(prefix_[1]) << 8) |
                   (static_cast<u32>(prefix_[2]) << 16) |
                   (static_cast<u32>(prefix_[3]) << 24);
            if (len_ > max_frame_)
                net_fail(NetErrorCode::frame_too_large,
                         "inbound frame announces " + std::to_string(len_) +
                             " bytes, cap is " + std::to_string(max_frame_));
        } else {
            frame_fill_ += n;
        }
        if (frame_fill_ < len_) return;
        ready_bytes_ += frame_.capacity();
        ready_.push_back(std::move(frame_));
        frame_ = std::vector<u8>();
        prefix_fill_ = 0;
        frame_fill_ = 0;
        len_ = 0;
    }

    /// Buffer newly arrived bytes, copying them into place. Any split is
    /// legal, including mid-length-prefix.
    void feed(std::span<const u8> bytes) {
        while (!bytes.empty()) {
            const std::span<u8> w = window(bytes.size());
            const std::size_t n = std::min(w.size(), bytes.size());
            std::memcpy(w.data(), bytes.data(), n);
            commit(n);
            bytes = bytes.subspan(n);
        }
    }

    /// Pop the next complete protocol frame (without the prefix), or
    /// nullopt if more bytes are needed.
    std::optional<std::vector<u8>> next() {
        if (ready_.empty()) return std::nullopt;
        std::vector<u8> frame = std::move(ready_.front());
        ready_.pop_front();
        ready_bytes_ -= frame.capacity();
        return frame;
    }

    /// Bytes of the frame in progress still to arrive; 0 while its length
    /// prefix is incomplete.
    std::size_t frame_remaining() const noexcept {
        return prefix_fill_ < 4 ? 0 : len_ - frame_fill_;
    }

    /// True if nothing is buffered — no partial frame and no complete one
    /// waiting (a clean stream boundary, used to tell an orderly EOF from a
    /// truncated frame).
    bool empty() const noexcept { return prefix_fill_ == 0 && ready_.empty(); }

    /// Memory held for frames not yet popped: the prefix in progress and
    /// every frame buffer's capacity, reserved-but-unfilled bytes included.
    std::size_t buffered_bytes() const noexcept {
        return prefix_fill_ + frame_.capacity() + ready_bytes_;
    }

private:
    /// recv_window() exposing up to `want` more bytes of the frame, never
    /// past its announced length. Capacity grows by doubling, capped at the
    /// announced length, so a frame fed piece by piece reallocates O(log)
    /// times and never holds more than that length.
    std::span<u8> window(std::size_t want) {
        if (prefix_fill_ < 4) return std::span<u8>(prefix_).subspan(prefix_fill_);
        if (frame_fill_ == frame_.size()) {
            const std::size_t size = std::min<std::size_t>(len_, frame_fill_ + want);
            if (size > frame_.capacity())
                frame_.reserve(std::min<std::size_t>(
                    len_, std::max(size, 2 * frame_.capacity())));
            frame_.resize(size);
        }
        return std::span<u8>(frame_).subspan(frame_fill_);
    }

    static constexpr std::size_t kMinWindow = 64 * 1024;
    static constexpr std::size_t kMaxWindow = 256 * 1024;

    u32 max_frame_;
    std::array<u8, 4> prefix_{};
    std::size_t prefix_fill_ = 0;
    u32 len_ = 0;                ///< announced length of the frame in progress
    std::vector<u8> frame_;      ///< the frame in progress, sized as exposed
    std::size_t frame_fill_ = 0;
    std::deque<std::vector<u8>> ready_;  ///< complete frames, in order
    std::size_t ready_bytes_ = 0;        ///< summed capacity of ready_
};

}  // namespace recoil::net
