/**
 * @file
 * A fixed-capacity FIFO ring for the timing core's bounded queues (the
 * reorder buffer, the fetch queue, the load and store queues).  Every
 * one of those structures has a hard capacity checked before each
 * push, so the ring never grows: its slots are allocated once, and an
 * entry's address stays the same from push_back() until the slot is
 * reused by a later push — which can only happen after pop_front()
 * removed it.  Popped and cleared slots are not destroyed; they keep
 * their stale value until overwritten.
 */

#ifndef CPE_UTIL_RING_HH
#define CPE_UTIL_RING_HH

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace cpe::util {

/** Fixed-capacity FIFO; index 0 is the oldest entry. */
template <typename T>
class Ring
{
    template <bool Const>
    class Iter;

  public:
    using value_type = T;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    explicit Ring(std::size_t capacity) : slots_(capacity)
    {
        CPE_ASSERT(capacity >= 1, "a ring needs at least one slot");
    }

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** The @p i-th oldest entry (i < size()). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    T &front() { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    /** Append at the tail; @return the slot the value now lives in. */
    T &
    push_back(const T &value)
    {
        CPE_ASSERT(!full(), "push into a full ring");
        T &slot = slots_[wrap(head_ + size_)];
        slot = value;
        ++size_;
        return slot;
    }

    /** Remove the oldest entry. */
    void
    pop_front()
    {
        CPE_ASSERT(!empty(), "pop from an empty ring");
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Drop every entry. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }
    const_reverse_iterator rbegin() const
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator rend() const
    {
        return const_reverse_iterator(begin());
    }

  private:
    /** Physical slot of logical position @p i (i < 2 * capacity). */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    /** Bidirectional iterator over logical positions, oldest first. */
    template <bool Const>
    class Iter
    {
        using RingPtr = std::conditional_t<Const, const Ring *, Ring *>;

      public:
        using iterator_category = std::bidirectional_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(RingPtr ring, std::size_t pos) : ring_(ring), pos_(pos) {}

        reference operator*() const { return (*ring_)[pos_]; }
        Iter &operator++() { ++pos_; return *this; }
        Iter &operator--() { --pos_; return *this; }
        bool operator==(const Iter &other) const
        {
            return pos_ == other.pos_;
        }
        bool operator!=(const Iter &other) const
        {
            return pos_ != other.pos_;
        }

      private:
        RingPtr ring_ = nullptr;
        std::size_t pos_ = 0;
    };

    std::vector<T> slots_;
    std::size_t head_ = 0;  ///< physical slot of the oldest entry
    std::size_t size_ = 0;
};

} // namespace cpe::util

#endif // CPE_UTIL_RING_HH
