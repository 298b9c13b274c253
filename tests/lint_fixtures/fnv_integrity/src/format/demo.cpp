// Fixture source: declares and defines the reference fnv1a (allowed), then
// seals a trailer with it — the integrity-primitive gate must fire on the
// call; the other gates stay clean.
u64 fnv1a(std::span<const u8> bytes);

u64 fnv1a(std::span<const u8> bytes) { return bytes.size(); }

void append_trailer(std::vector<u8>& out, Registry& reg) {
    put_u64(out, fnv1a(out));
    reg.counter("demo_requests_total");
}
