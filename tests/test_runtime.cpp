#include <gtest/gtest.h>

#include "vm/runtime/heap.h"
#include "vm/runtime/value.h"
#include "vm/runtime/vm_error.h"

namespace jrs {
namespace {

TEST(Value, IntRoundTrip)
{
    const Value v = Value::makeInt(-12345);
    EXPECT_EQ(v.tag(), Tag::Int);
    EXPECT_EQ(v.asInt(), -12345);
    EXPECT_EQ(Value::fromSlotBits(v.slotBits(), Tag::Int).asInt(),
              -12345);
    EXPECT_EQ(Value::fromRaw(v.raw(), Tag::Int).asInt(), -12345);
}

TEST(Value, FloatRoundTrip)
{
    const Value v = Value::makeFloat(3.25f);
    EXPECT_EQ(v.tag(), Tag::Float);
    EXPECT_FLOAT_EQ(v.asFloat(), 3.25f);
    EXPECT_FLOAT_EQ(Value::fromSlotBits(v.slotBits(), Tag::Float)
                        .asFloat(),
                    3.25f);
    EXPECT_FLOAT_EQ(Value::fromRaw(v.raw(), Tag::Float).asFloat(),
                    3.25f);
}

TEST(Value, RefRoundTripAndNull)
{
    const SimAddr a = seg::kHeap + 0x1230;
    const Value v = Value::makeRef(a);
    EXPECT_EQ(v.asRef(), a);
    EXPECT_FALSE(v.isNullRef());
    EXPECT_EQ(Value::fromSlotBits(v.slotBits(), Tag::Ref).asRef(), a);

    const Value n = Value::null();
    EXPECT_TRUE(n.isNullRef());
    EXPECT_EQ(n.slotBits(), 0u);
    EXPECT_TRUE(Value::fromSlotBits(0, Tag::Ref).isNullRef());
}

TEST(Value, NegativeIntRawIsSignExtended)
{
    const Value v = Value::makeInt(-1);
    EXPECT_EQ(v.raw(), ~0ull);
}

TEST(Value, Equality)
{
    EXPECT_EQ(Value::makeInt(3), Value::makeInt(3));
    EXPECT_FALSE(Value::makeInt(3) == Value::makeFloat(3.0f));
}

TEST(Heap, ObjectLayout)
{
    Heap h(1 << 20);
    const SimAddr obj = h.allocObject(7, 3);
    EXPECT_TRUE(h.validRef(obj));
    EXPECT_EQ(h.klassOf(obj), 7);
    EXPECT_FALSE(h.isArray(obj));
    EXPECT_EQ(h.lockword(obj), 0u);
    // Fields zeroed and writable.
    for (std::uint16_t s = 0; s < 3; ++s)
        EXPECT_EQ(h.loadU32(Heap::fieldAddr(obj, s)), 0u);
    h.storeU32(Heap::fieldAddr(obj, 1), 0xdeadbeef);
    EXPECT_EQ(h.loadU32(Heap::fieldAddr(obj, 1)), 0xdeadbeef);
}

TEST(Heap, ArrayLayoutAllKinds)
{
    Heap h(1 << 20);
    const SimAddr ia = h.allocArray(ArrayKind::Int, 5);
    EXPECT_TRUE(h.isArray(ia));
    EXPECT_EQ(h.arrayKindOf(ia), ArrayKind::Int);
    EXPECT_EQ(h.arrayLength(ia), 5);
    EXPECT_EQ(h.elemAddr(ia, 2), ia + 12 + 8);

    const SimAddr ca = h.allocArray(ArrayKind::Char, 4);
    EXPECT_EQ(h.elemAddr(ca, 3), ca + 12 + 6);
    h.storeU16(h.elemAddr(ca, 3), 0x4142);
    EXPECT_EQ(h.loadU16(h.elemAddr(ca, 3)), 0x4142);

    const SimAddr ba = h.allocArray(ArrayKind::Byte, 3);
    EXPECT_EQ(h.elemAddr(ba, 2), ba + 12 + 2);
}

TEST(Heap, IndexBounds)
{
    Heap h(1 << 20);
    const SimAddr a = h.allocArray(ArrayKind::Int, 4);
    EXPECT_TRUE(h.indexInBounds(a, 0));
    EXPECT_TRUE(h.indexInBounds(a, 3));
    EXPECT_FALSE(h.indexInBounds(a, 4));
    EXPECT_FALSE(h.indexInBounds(a, -1));
}

TEST(Heap, ZeroLengthArray)
{
    Heap h(1 << 20);
    const SimAddr a = h.allocArray(ArrayKind::Byte, 0);
    EXPECT_EQ(h.arrayLength(a), 0);
    EXPECT_FALSE(h.indexInBounds(a, 0));
}

TEST(Heap, AllocationAccounting)
{
    Heap h(1 << 20);
    const std::size_t before = h.bytesAllocated();
    h.allocObject(1, 4);
    EXPECT_GE(h.bytesAllocated(), before + 8 + 16);
    EXPECT_EQ(h.allocationCount(), 1u);
}

TEST(Heap, AddressesAreEightByteAligned)
{
    Heap h(1 << 20);
    for (int i = 0; i < 16; ++i) {
        const SimAddr a =
            h.allocArray(ArrayKind::Byte, i);  // odd sizes
        EXPECT_EQ(a % 8, 0u);
    }
}

TEST(Heap, ExhaustionThrows)
{
    Heap h(1 << 12);
    EXPECT_THROW(h.allocArray(ArrayKind::Int, 1 << 20), VmError);
}

TEST(Heap, OutOfRangeAccessThrows)
{
    Heap h(1 << 12);
    EXPECT_THROW(h.loadU32(seg::kHeap + (1 << 13)), VmError);
    EXPECT_THROW(h.loadU32(0x1000), VmError);
}

TEST(Heap, AccessWidthIsBoundsChecked)
{
    // Each access must fit wholly inside the arena, not just its
    // first byte.
    Heap h(64);
    EXPECT_THROW(h.loadU32(seg::kHeap + 62), VmError);
    EXPECT_THROW(h.storeU32(seg::kHeap + 61, 1), VmError);
    EXPECT_THROW(h.loadU16(seg::kHeap + 63), VmError);
    EXPECT_THROW(h.storeU16(seg::kHeap + 63, 1), VmError);
    EXPECT_THROW(h.refSlot(seg::kHeap + 62), VmError);
    EXPECT_THROW(h.loadU8(seg::kHeap + 64), VmError);
    // The last whole slot of each width is still reachable.
    h.storeU32(seg::kHeap + 60, 0x01020304u);
    EXPECT_EQ(h.loadU32(seg::kHeap + 60), 0x01020304u);
    EXPECT_EQ(h.loadU16(seg::kHeap + 62), 0x0102u);
    EXPECT_EQ(h.loadU8(seg::kHeap + 63), 0x01u);
}

TEST(Heap, NullIsNeverValid)
{
    Heap h(1 << 12);
    EXPECT_FALSE(h.validRef(0));
    EXPECT_FALSE(h.validRef(seg::kHeap));  // reserved prefix
}

TEST(Heap, LockwordRoundTrip)
{
    Heap h(1 << 12);
    const SimAddr o = h.allocObject(0, 0);
    h.setLockword(o, 0x00ffee01u);
    EXPECT_EQ(h.lockword(o), 0x00ffee01u);
    EXPECT_EQ(Heap::lockwordAddr(o), o + 4);
}

TEST(BuiltinEx, ClassIdsAndNames)
{
    EXPECT_EQ(builtinExClassId(BuiltinEx::NullPointer),
              kBuiltinExClassBase);
    EXPECT_STREQ(builtinExName(BuiltinEx::Arithmetic),
                 "ArithmeticException");
    EXPECT_STREQ(builtinExName(BuiltinEx::StackOverflow),
                 "StackOverflowError");
}

} // namespace
} // namespace jrs
