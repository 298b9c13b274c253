#pragma once
// Little-endian wire primitives shared by every serializer/parser in the
// library (container, chunked stream, range wire). Every wire ends in an
// 8-byte trailer holding the zero-extended CRC32C (format/crc32c.hpp) of
// all bytes before it; a trailer with nonzero high bits never matches.
// Parsers consume untrusted bytes: Cursor::need compares against the
// remaining length so an attacker-controlled u64 size cannot wrap `pos + n`
// past the bounds check, and freq tables are validated to sum to exactly
// 2^prob_bits before they can reach a model's table builder.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "format/crc32c.hpp"
#include "util/error.hpp"
#include "util/ints.hpp"

namespace recoil::format {

/// Payload storage that is either owned or a zero-copy view into bytes kept
/// alive by an external keeper (an mmapped container file). Copies share the
/// underlying storage, so re-serializing or combining a parsed container
/// never duplicates the bitstream. The keeper outlives every view, which is
/// what makes handing spans of a mapping around safe.
template <typename T>
class SharedBuffer {
public:
    SharedBuffer() = default;
    SharedBuffer(std::vector<T> own) {  // NOLINT: implicit by design
        auto v = std::make_shared<const std::vector<T>>(std::move(own));
        view_ = std::span<const T>(v->data(), v->size());
        keeper_ = std::move(v);
    }
    SharedBuffer& operator=(std::vector<T> own) {
        *this = SharedBuffer(std::move(own));
        return *this;
    }

    /// View over caller-kept bytes; `keeper` must own the storage `s` points
    /// into and is retained for the buffer's lifetime.
    static SharedBuffer view(std::span<const T> s,
                             std::shared_ptr<const void> keeper) {
        SharedBuffer b;
        b.view_ = s;
        b.keeper_ = std::move(keeper);
        b.borrowed_ = true;
        return b;
    }

    const T* data() const noexcept { return view_.data(); }
    std::size_t size() const noexcept { return view_.size(); }
    bool empty() const noexcept { return view_.empty(); }
    const T* begin() const noexcept { return view_.data(); }
    const T* end() const noexcept { return view_.data() + view_.size(); }
    const T& operator[](std::size_t i) const noexcept { return view_[i]; }
    operator std::span<const T>() const noexcept { return view_; }  // NOLINT

    /// True when this buffer is a zero-copy view into external storage
    /// (e.g. an mmapped file) rather than an owned vector.
    bool borrowed() const noexcept { return borrowed_; }

    /// The storage owner this buffer retains (shared vector or mapped file).
    std::shared_ptr<const void> keeper() const noexcept { return keeper_; }

    /// Sub-range view sharing this buffer's storage and keeper — never a
    /// copy, so slicing a payload for piecewise emission is free.
    SharedBuffer slice(std::size_t pos, std::size_t n) const {
        SharedBuffer b;
        b.view_ = view_.subspan(pos, n);
        b.keeper_ = keeper_;
        b.borrowed_ = borrowed_;
        return b;
    }

    friend bool operator==(const SharedBuffer& a, const SharedBuffer& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    std::span<const T> view_;
    std::shared_ptr<const void> keeper_;
    bool borrowed_ = false;
};

using UnitBuffer = SharedBuffer<u16>;  ///< bitstream units
using ByteBuffer = SharedBuffer<u8>;   ///< per-symbol model ids

/// Push consumer of a wire under construction, fed pieces in wire order.
/// Pieces are ByteBuffers, so producers hand out borrowed views of payload
/// storage (mmapped bitstreams, shared id streams) without copying; only the
/// small structural sections are owned allocations. Every serializer in the
/// library produces through this interface — materializing a whole wire is
/// just the VectorSink instance of it.
class WireSink {
public:
    virtual ~WireSink() = default;
    virtual void write(ByteBuffer piece) = 0;
};

/// Materializing sink: concatenates every piece (the legacy wire shape).
class VectorSink final : public WireSink {
public:
    void write(ByteBuffer piece) override {
        out.insert(out.end(), piece.begin(), piece.end());
    }
    std::vector<u8> out;
};

/// Pass-through sink folding every byte into a running CRC32C, so a
/// producer can emit its trailing checksum without a second pass over (or a
/// materialized copy of) the wire. `bytes()` doubles as the absolute wire
/// offset, which alignment pads depend on.
class HashingSink final : public WireSink {
public:
    explicit HashingSink(WireSink& down) : down_(down) {}
    void write(ByteBuffer piece) override {
        digest_ = crc32c(piece, digest_);
        bytes_ += piece.size();
        down_.write(std::move(piece));
    }
    u64 digest() const noexcept { return digest_; }
    u64 bytes() const noexcept { return bytes_; }

private:
    WireSink& down_;
    u32 digest_ = 0;
    u64 bytes_ = 0;
};

/// The wire form of `count` units starting at `first`: a borrowed byte view
/// of the unit storage (little-endian u16s are their own wire encoding —
/// the same reinterpretation every materializing serializer already does).
inline ByteBuffer unit_wire_bytes(const UnitBuffer& units, u64 first,
                                  u64 count) {
    return ByteBuffer::view(
        std::span<const u8>(
            reinterpret_cast<const u8*>(units.data() + first), count * 2),
        units.keeper());
}

namespace wire {

inline void put_u16(std::vector<u8>& out, u16 v) {
    for (int i = 0; i < 2; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}
inline void put_u32(std::vector<u8>& out, u32 v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}
inline void put_u64(std::vector<u8>& out, u64 v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

struct Cursor {
    std::span<const u8> in;
    const char* ctx = "wire";  ///< error-message prefix
    std::size_t pos = 0;

    void need(std::size_t n) const {
        // pos <= in.size() is an invariant, so comparing against the
        // remainder cannot overflow no matter how large n is.
        if (n > in.size() - pos) raise(std::string(ctx) + ": truncated");
    }
    u8 get_u8() {
        need(1);
        return in[pos++];
    }
    u16 get_u16() {
        need(2);
        u16 v = 0;
        for (int i = 0; i < 2; ++i) v = static_cast<u16>(v | (u16{in[pos + i]} << (8 * i)));
        pos += 2;
        return v;
    }
    u32 get_u32() {
        need(4);
        u32 v = 0;
        for (int i = 0; i < 4; ++i) v |= u32{in[pos + i]} << (8 * i);
        pos += 4;
        return v;
    }
    u64 get_u64() {
        need(8);
        u64 v = 0;
        for (int i = 0; i < 8; ++i) v |= u64{in[pos + i]} << (8 * i);
        pos += 8;
        return v;
    }
    std::span<const u8> get_bytes(std::size_t n) {
        need(n);
        auto s = in.subspan(pos, n);
        pos += n;
        return s;
    }
    /// Bytes of `count` 16-bit units; guards the count*2 multiply against
    /// wrapping before the bounds check.
    std::span<const u8> get_unit_bytes(u64 count) {
        if (count > (in.size() - pos) / 2)
            raise(std::string(ctx) + ": truncated");
        return get_bytes(static_cast<std::size_t>(count) * 2);
    }
};

inline void append_checksum(std::vector<u8>& out) { put_u64(out, crc32c(out)); }

/// Verify the trailing checksum and return the payload it covers. `verify`
/// false skips the hash (for callers that already validated the same bytes
/// at a higher level, e.g. a store manifest checksum over a mapped file) but
/// still strips the trailer.
inline std::span<const u8> checked_payload(std::span<const u8> bytes,
                                           const char* ctx, bool verify = true) {
    if (bytes.size() < 16) raise(std::string(ctx) + ": too short");
    u64 stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= u64{bytes[bytes.size() - 8 + i]} << (8 * i);
    auto payload = bytes.first(bytes.size() - 8);
    if (verify && crc32c(payload) != stored)
        raise(std::string(ctx) + ": checksum mismatch");
    return payload;
}

/// CRC32C of a whole sealed wire (payload ‖ its 8-byte trailer) in O(1):
/// the trailer holds crc(payload), so crc(wire) is the CRC of the trailer's
/// own 8 bytes continued from that value. Trusts the trailer — for wires
/// this process sealed itself; a received wire is checked by
/// checked_payload() instead.
inline u32 sealed_wire_crc(std::span<const u8> wire) {
    RECOIL_CHECK(wire.size() >= 8, "sealed wire shorter than its trailer");
    const auto t = wire.last(8);
    const u32 payload_crc = u32{t[0]} | (u32{t[1]} << 8) | (u32{t[2]} << 16) |
                            (u32{t[3]} << 24);
    return crc32c(t, payload_crc);
}

/// Pad marker so the u16 unit payload that follows starts at an even offset
/// within the serialized buffer: a one-byte pad count (0 or 1) followed by
/// that many zero bytes. With the container file mapped at a page-aligned
/// base, an even file offset makes the units directly addressable as u16
/// without copying (see SharedBuffer::view).
inline void put_unit_pad(std::vector<u8>& out, u64 base = 0) {
    const u8 pad = static_cast<u8>((base + out.size() + 1) % 2);
    out.push_back(pad);
    if (pad != 0) out.push_back(0);
}

/// Bytes put_unit_pad would append at buffer offset `pos`.
inline u64 unit_pad_size(u64 pos) { return 1 + (pos + 1) % 2; }

/// Consume a pad marker written by put_unit_pad.
inline void skip_unit_pad(Cursor& c) {
    const u8 pad = c.get_u8();
    if (pad > 1) raise(std::string(c.ctx) + ": bad unit padding");
    for (u8 i = 0; i < pad; ++i)
        if (c.get_u8() != 0) raise(std::string(c.ctx) + ": bad unit padding");
}

/// Consume `count` u16 units as a UnitBuffer: a zero-copy view into the
/// cursor's bytes when a keeper owns them and the payload is u16-aligned
/// (containers mapped at offset 0 guarantee this), an owned copy
/// otherwise. Shared by every container parser.
inline UnitBuffer get_unit_buffer(Cursor& c, u64 count,
                                  const std::shared_ptr<const void>& keeper) {
    auto units = c.get_unit_bytes(count);
    if (keeper != nullptr &&
        reinterpret_cast<std::uintptr_t>(units.data()) % alignof(u16) == 0) {
        return UnitBuffer::view(
            std::span<const u16>(reinterpret_cast<const u16*>(units.data()),
                                 count),
            keeper);
    }
    std::vector<u16> copy(count);
    std::memcpy(copy.data(), units.data(), count * 2);
    return copy;
}

inline void put_freq_table(std::vector<u8>& out, std::span<const u32> freq) {
    put_u32(out, static_cast<u32>(freq.size()));
    for (u32 f : freq) put_u32(out, f);
}

/// Parse a freq table and require it to be a valid quantized pdf for
/// `prob_bits` (entries summing to exactly 2^prob_bits), so hostile values
/// cannot overflow the decode-side cumulative tables.
inline std::vector<u32> get_freq_table(Cursor& c, u32 prob_bits) {
    const u32 n = c.get_u32();
    if (n == 0 || n > (u32{1} << 20))
        raise(std::string(c.ctx) + ": bad alphabet size");
    std::vector<u32> freq(n);
    u64 total = 0;
    for (auto& f : freq) {
        f = c.get_u32();
        total += f;
    }
    if (total != u64{1} << prob_bits)
        raise(std::string(c.ctx) + ": frequency table does not sum to 2^prob_bits");
    return freq;
}

}  // namespace wire
}  // namespace recoil::format
