#include "relogic/area/manager.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "relogic/common/audit.hpp"

namespace relogic::area {

namespace {

using Word = std::uint64_t;
constexpr int kWordBits = 64;

int words_for(int bits) { return (bits + kWordBits - 1) / kWordBits; }

/// Low `len` bits set (0 <= len <= 64).
Word low_mask(int len) {
  return len >= kWordBits ? ~Word{0} : (Word{1} << len) - 1;
}

/// Sets (on) or clears bits [lo, lo + len) of a word array (lo >= 0).
void set_bits(Word* words, int lo, int len, bool on) {
  Word* w = words + lo / kWordBits;
  for (int b = lo % kWordBits; len > 0; ++w, b = 0) {
    const int take = std::min(len, kWordBits - b);
    const Word m = low_mask(take) << b;
    *w = on ? (*w | m) : (*w & ~m);
    len -= take;
  }
}

/// Number of set bits in [lo, lo + len) of a word array (lo >= 0).
int count_bits(const Word* words, int lo, int len) {
  const Word* w = words + lo / kWordBits;
  const int b = lo % kWordBits;
  if (b + len <= kWordBits) return std::popcount((*w >> b) & low_mask(len));
  int n = std::popcount(*w >> b);
  for (len -= kWordBits - b, ++w; len > 0; len -= kWordBits, ++w)
    n += std::popcount(*w & low_mask(len));
  return n;
}

/// Longest run of consecutive set bits across an n-word array.
int longest_run(const Word* words, int n) {
  int best = 0;
  int start = -1;  // absolute index of the open run's first bit, or -1
  for (int i = 0; i < n; ++i) {
    const Word x = words[i];
    int pos = 0;  // bits of word i consumed
    while (pos < kWordBits) {
      // An open run looks for its first clear bit, otherwise the next run
      // starts at the next set bit.
      const Word rest = (start < 0 ? x : ~x) >> pos;
      if (rest == 0) break;
      pos += std::countr_zero(rest);
      if (start < 0) {
        start = i * kWordBits + pos;
      } else {
        best = std::max(best, i * kWordBits + pos - start);
        start = -1;
      }
    }
  }
  if (start >= 0) best = std::max(best, n * kWordBits - start);
  return best;
}

/// In place, bit c becomes the AND of bits c .. c+w-1 (w >= 1): set iff a
/// w-long run of set bits starts at c. Doubling, so log2(w) word passes;
/// the array's top bits are clear, so runs never extend past its end.
void keep_run_starts(Word* words, int n, int w) {
  for (int len = 1; len < w;) {
    const int s = std::min(len, w - len);
    const int ws = s / kWordBits;
    const int bs = s % kWordBits;
    // words[i] reads words[i + ws] and words[i + ws + 1] only: ascending i
    // never reads a word this pass has already rewritten (ws = 0 reads the
    // current one before writing it).
    for (int i = 0; i < n; ++i) {
      const Word lo = i + ws < n ? words[i + ws] : 0;
      const Word hi = i + ws + 1 < n ? words[i + ws + 1] : 0;
      words[i] &= bs == 0 ? lo : (lo >> bs) | (hi << (kWordBits - bs));
    }
    len += s;
  }
}

/// Buffer for one query: inline up to N elements, on the heap beyond; the
/// same code runs either way.
template <typename T, int N>
class InlineBuf {
 public:
  explicit InlineBuf(int n) {
    if (n > N) heap_.resize(static_cast<std::size_t>(n));
  }
  T* data() { return heap_.empty() ? inline_.data() : heap_.data(); }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
};

/// acc = AND of `count` consecutive rows starting at `first` (stride n
/// words). Returns false as soon as acc is all clear.
bool and_rows(Word* acc, const Word* first, int n, int count) {
  for (int i = 0; i < n; ++i) acc[i] = first[i];
  for (int k = 1; k < count; ++k) {
    Word any = 0;
    const Word* row = first + static_cast<std::ptrdiff_t>(k) * n;
    for (int i = 0; i < n; ++i) any |= (acc[i] &= row[i]);
    if (any == 0) return false;
  }
  for (int i = 0; i < n; ++i)
    if (acc[i] != 0) return true;
  return false;
}

/// The placement scan: calls visit(row, col) for every position whose
/// h x w rect is all free in `bits` and does not overlap `avoid`, in
/// row-major order, until visit returns true.
template <typename Visit>
void for_each_fit(const FreeRows& bits, int h, int w, const ClbRect* avoid,
                  Visit&& visit) {
  if (h > bits.rows() || w > bits.cols()) return;
  const int n = bits.row_words();
  InlineBuf<Word, 4> buf(n);  // 256 columns (XCV4000 has 192)
  Word* fits = buf.data();
  for (int row = 0; row + h <= bits.rows(); ++row) {
    // fits: bit c set iff the h x w rect at (row, c) is all free.
    if (!and_rows(fits, bits.row(row), n, h)) continue;
    keep_run_starts(fits, n, w);
    if (avoid != nullptr && row < avoid->row_end() && avoid->row < row + h) {
      // Starts c with c < avoid.col_end and c + w > avoid.col overlap it.
      const int lo = std::max(0, avoid->col - w + 1);
      const int hi = std::min(bits.cols(), avoid->col_end());
      if (lo < hi) set_bits(fits, lo, hi - lo, false);
    }
    for (int i = 0; i < n; ++i)
      for (Word x = fits[i]; x != 0; x &= x - 1)
        if (visit(row, i * kWordBits + std::countr_zero(x))) return;
  }
}

/// max(floor, area of the largest all-free rectangle) of `rows` row
/// bitsets (stride n words, `cols` columns). For each top row, AND the
/// rows below it in turn: the longest run of the AND is the widest free
/// rect spanning exactly those rows. The AND only loses bits further down,
/// so (rows left) x run bounds every later candidate from this top; the
/// walk stops wherever that bound cannot exceed the best so far, which
/// starts at `floor`.
int largest_area(const Word* bits, int rows, int cols, int n, int floor) {
  InlineBuf<Word, 4> buf(n);
  Word* acc = buf.data();
  int best = floor;
  for (int top = 0; top < rows && (rows - top) * cols > best; ++top) {
    const Word* first = bits + static_cast<std::ptrdiff_t>(top) * n;
    for (int i = 0; i < n; ++i) acc[i] = first[i];
    for (int bottom = top; bottom < rows; ++bottom) {
      if (bottom > top) {
        const Word* row = bits + static_cast<std::ptrdiff_t>(bottom) * n;
        for (int i = 0; i < n; ++i) acc[i] &= row[i];
      }
      const int run = longest_run(acc, n);
      if ((rows - top) * run <= best) break;
      best = std::max(best, (bottom - top + 1) * run);
    }
  }
  return best;
}

}  // namespace

FreeRows::FreeRows(int rows, int cols)
    : rows_(rows), cols_(cols), row_words_(words_for(cols)) {
  RELOGIC_CHECK(rows >= 1 && cols >= 1);
  bits_.assign(static_cast<std::size_t>(rows) * row_words_, 0);
  set(ClbRect{0, 0, rows, cols}, true);
}

void FreeRows::set(const ClbRect& r, bool free) {
  for (int row = r.row; row < r.row_end(); ++row)
    set_bits(&bits_[static_cast<std::size_t>(row) * row_words_], r.col,
             r.width, free);
}

std::optional<ClbRect> FreeRows::first_fit(int h, int w,
                                           const ClbRect* avoid) const {
  RELOGIC_CHECK(h >= 1 && w >= 1);
  std::optional<ClbRect> hit;
  for_each_fit(*this, h, w, avoid, [&](int row, int col) {
    hit = ClbRect{row, col, h, w};
    return true;
  });
  return hit;
}

AreaManager::AreaManager(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      col_words_(words_for(rows)),
      free_rows_(rows, cols),
      free_clbs_(rows * cols) {
  RELOGIC_CHECK(rows >= 1 && cols >= 1);
  grid_.assign(static_cast<std::size_t>(rows) * cols, kNoRegion);
  col_free_.assign(static_cast<std::size_t>(cols) * col_words_, 0);
  for (int col = 0; col < cols_; ++col)
    set_bits(&col_free_[static_cast<std::size_t>(col) * col_words_], 0, rows_,
             true);
}

RegionId AreaManager::at(ClbCoord c) const {
  RELOGIC_CHECK(c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_);
  return grid_[static_cast<std::size_t>(c.row) * cols_ + c.col];
}

bool AreaManager::rect_free(const ClbRect& r) const {
  if (r.row < 0 || r.col < 0 || r.row_end() > rows_ || r.col_end() > cols_)
    return false;
  for (int row = r.row; row < r.row_end(); ++row) {
    if (count_bits(row_bits(row), r.col, r.width) != r.width) return false;
  }
  return true;
}

void AreaManager::fill(const ClbRect& r, RegionId id) {
  const bool free = id == kNoRegion;
  for (int row = r.row; row < r.row_end(); ++row) {
    const std::size_t base = static_cast<std::size_t>(row) * cols_;
    std::fill(grid_.begin() + static_cast<std::ptrdiff_t>(base + r.col),
              grid_.begin() + static_cast<std::ptrdiff_t>(base + r.col_end()),
              id);
  }
  free_rows_.set(r, free);
  for (int col = r.col; col < r.col_end(); ++col)
    set_bits(&col_free_[static_cast<std::size_t>(col) * col_words_], r.row,
             r.height, free);
  largest_free_.reset();
  largest_area_ = -1;
}

void AreaManager::mask_faulty(ClbCoord c) {
  const RegionId slot = at(c);  // bounds-checked
  if (slot == kFaultyRegion) return;  // already masked
  RELOGIC_CHECK_MSG(slot == kNoRegion,
                    "cannot mask " + c.to_string() +
                        ": CLB currently hosts a region");
  fill(ClbRect{c.row, c.col, 1, 1}, kFaultyRegion);
  --free_clbs_;
  ++masked_clbs_;
}

std::optional<ClbRect> AreaManager::find_free_rect(int h, int w,
                                                   PlacePolicy policy,
                                                   const ClbRect* avoid) const {
  if (policy == PlacePolicy::kBottomLeft)
    return free_rows_.first_fit(h, w, avoid);
  return find_free_rects(h, w, avoid).best_fit;
}

FreeRects AreaManager::find_free_rects(int h, int w,
                                       const ClbRect* avoid) const {
  RELOGIC_CHECK(h >= 1 && w >= 1);
  // Best-fit prefers positions hugging occupied space / edges: score = the
  // number of occupied-or-border cells adjacent to the rect. No position
  // can beat a fully enclosed one, so the first of those ends the scan.
  // Bottom-left is the scan's first hit, which comes no later than that.
  const long max_score = 2L * (h + w);
  FreeRects out;
  long best_score = 0;
  for_each_fit(free_rows_, h, w, avoid, [&](int row, int col) {
    const ClbRect r{row, col, h, w};
    if (!out.bottom_left) out.bottom_left = r;
    // Rows above and below first: if even fully occupied side columns
    // could not beat the best so far, skip counting them.
    const long rows_score =
        (row == 0 ? w : w - count_bits(row_bits(row - 1), col, w)) +
        (row + h == rows_ ? w : w - count_bits(row_bits(row + h), col, w));
    if (out.best_fit && rows_score + 2L * h <= best_score) return false;
    const long score =
        rows_score +
        (col == 0 ? h : h - count_bits(col_bits(col - 1), row, h)) +
        (col + w == cols_ ? h : h - count_bits(col_bits(col + w), row, h));
    if (out.best_fit && score <= best_score) return false;
    out.best_fit = r;
    best_score = score;
    return score == max_score;
  });
  return out;
}

RegionId AreaManager::allocate(std::string name, int h, int w,
                               PlacePolicy policy) {
  const auto rect = find_free_rect(h, w, policy);
  if (!rect) return kNoRegion;
  return allocate_at(std::move(name), *rect);
}

RegionId AreaManager::allocate_at(std::string name, ClbRect rect) {
  RELOGIC_CHECK_MSG(rect_free(rect),
                    "rect " + rect.to_string() + " is not free");
  const RegionId id = next_id_++;
  fill(rect, id);
  free_clbs_ -= rect.area();
  regions_.push_back(Region{id, std::move(name), rect});  // ids ascend
  return id;
}

std::vector<Region>::const_iterator AreaManager::find(RegionId id) const {
  const auto it = std::lower_bound(
      regions_.begin(), regions_.end(), id,
      [](const Region& r, RegionId key) { return r.id < key; });
  return it != regions_.end() && it->id == id ? it : regions_.end();
}

bool AreaManager::exists(RegionId id) const {
  return find(id) != regions_.end();
}

const Region& AreaManager::region(RegionId id) const {
  const auto it = find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  return *it;
}

Region& AreaManager::region_mut(RegionId id) {
  const auto it = find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  return regions_[static_cast<std::size_t>(it - regions_.begin())];
}

void AreaManager::release(RegionId id) {
  const auto it = find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  fill(it->rect, kNoRegion);
  free_clbs_ += it->rect.area();
  regions_.erase(it);
}

void AreaManager::move(RegionId id, ClbRect to) {
  Region& r = region_mut(id);
  RELOGIC_CHECK_MSG(to.height == r.rect.height && to.width == r.rect.width,
                    "move must preserve region shape");
  // Free, then claim — the two rects may overlap (nearby relocation).
  fill(r.rect, kNoRegion);
  if (!rect_free(to)) {
    fill(r.rect, id);  // roll back
    throw IllegalOperationError("destination " + to.to_string() +
                                " is not free for region " + r.name);
  }
  fill(to, id);
  r.rect = to;
}

bool AreaManager::can_move(RegionId id, ClbRect to) const {
  const Region& r = region(id);
  if (to.height != r.rect.height || to.width != r.rect.width) return false;
  if (to.row < 0 || to.col < 0 || to.row_end() > rows_ ||
      to.col_end() > cols_)
    return false;
  for (int row = to.row; row < to.row_end(); ++row) {
    for (int col = to.col; col < to.col_end(); ++col) {
      const RegionId occ = grid_[static_cast<std::size_t>(row) * cols_ + col];
      if (occ != kNoRegion && occ != id) return false;
    }
  }
  return true;
}

ClbRect AreaManager::sweep_largest_free_rect() const {
  // Row by row: height[c] = free CLBs ending at this row in column c; a
  // stack pass then visits every maximal-in-histogram rectangle (every
  // maximal free rectangle of the grid is among them) and keeps the first
  // largest one.
  ClbRect best{0, 0, 0, 0};
  std::vector<int> height(static_cast<std::size_t>(cols_), 0);
  std::vector<int> stack;
  for (int row = 0; row < rows_; ++row) {
    for (int col = 0; col < cols_; ++col) {
      const bool free =
          grid_[static_cast<std::size_t>(row) * cols_ + col] == kNoRegion;
      height[static_cast<std::size_t>(col)] =
          free ? height[static_cast<std::size_t>(col)] + 1 : 0;
    }
    stack.clear();
    for (int col = 0; col <= cols_; ++col) {
      const int h = col < cols_ ? height[static_cast<std::size_t>(col)] : 0;
      while (!stack.empty() &&
             height[static_cast<std::size_t>(stack.back())] > h) {
        const int top = stack.back();
        stack.pop_back();
        const int hh = height[static_cast<std::size_t>(top)];
        const int left = stack.empty() ? 0 : stack.back() + 1;
        const ClbRect r{row - hh + 1, left, hh, col - left};
        if (r.area() > best.area()) best = r;
      }
      // Zero-height columns stay on the stack as barriers; otherwise a
      // later pop would wrongly extend across the gap.
      if (col < cols_) stack.push_back(col);
    }
  }
  return best;
}

ClbRect AreaManager::largest_free_rect() const {
  if (!largest_free_) largest_free_ = sweep_largest_free_rect();
  return *largest_free_;
}

int AreaManager::largest_free_area() const {
  if (largest_area_ < 0)
    largest_area_ = largest_area(free_rows_.bits().data(), rows_, cols_,
                                 free_rows_.row_words(), 0);
  return largest_area_;
}

int AreaManager::largest_free_area_after_move(const ClbRect& from,
                                              const ClbRect& to,
                                              int floor) const {
  const auto inside = [&](const ClbRect& r) {
    return r.row >= 0 && r.col >= 0 && r.row_end() <= rows_ &&
           r.col_end() <= cols_;
  };
  RELOGIC_CHECK(inside(from) && inside(to));
  // The bits move() would leave: from set (vacated), then to cleared.
  const int n = free_rows_.row_words();
  InlineBuf<Word, 64> buf(rows_ * n);  // up to 64 one-word rows inline
  Word* bits = buf.data();
  std::copy(free_rows_.bits().begin(), free_rows_.bits().end(), bits);
  for (int row = from.row; row < from.row_end(); ++row)
    set_bits(bits + static_cast<std::ptrdiff_t>(row) * n, from.col,
             from.width, true);
  for (int row = to.row; row < to.row_end(); ++row)
    set_bits(bits + static_cast<std::ptrdiff_t>(row) * n, to.col, to.width,
             false);
  return largest_area(bits, rows_, cols_, n, floor);
}

std::vector<int> AreaManager::free_width_profile() const {
  // Height by height: acc[t] is the AND of rows t .. t+h-1, and its
  // longest run the widest free rect spanning exactly those rows. Adding a
  // row only clears bits, so a run measured at one height caps that top's
  // runs at every later height, and profile[h-2] caps profile[h-1]: a top
  // whose cap cannot beat the height's best so far is not measured.
  std::vector<int> profile(static_cast<std::size_t>(rows_), 0);
  const int n = free_rows_.row_words();
  InlineBuf<Word, 64> acc_buf(rows_ * n);  // up to 64 one-word rows inline
  Word* acc = acc_buf.data();
  std::copy(free_rows_.bits().begin(), free_rows_.bits().end(), acc);
  InlineBuf<int, 64> cap_buf(rows_);
  int* cap = cap_buf.data();
  std::fill(cap, cap + rows_, cols_);
  int bound = cols_;
  for (int h = 1; h <= rows_ && bound > 0; ++h) {
    int& best = profile[static_cast<std::size_t>(h - 1)];
    for (int t = 0; t + h <= rows_; ++t) {
      Word* a = acc + static_cast<std::ptrdiff_t>(t) * n;
      if (h > 1) {
        const Word* row = row_bits(t + h - 1);
        for (int i = 0; i < n; ++i) a[i] &= row[i];
      }
      int& c = cap[t];
      if (c <= best || best == bound) continue;
      c = longest_run(a, n);
      best = std::max(best, c);
    }
    bound = best;
  }
  return profile;
}

std::string AreaManager::to_ascii() const {
  // Stable letter per region id.
  std::string out;
  out.reserve(static_cast<std::size_t>((cols_ + 1) * rows_));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      const RegionId id = grid_[static_cast<std::size_t>(r) * cols_ + c];
      if (id == kNoRegion) {
        out += '.';
      } else if (id == kFaultyRegion) {
        out += 'X';  // masked faulty CLB
      } else {
        out += static_cast<char>('A' + (id - 1) % 26);
      }
    }
    out += '\n';
  }
  return out;
}

double AreaManager::fragmentation() const {
  if (free_clbs_ == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_area()) / free_clbs_;
}

void AreaManager::audit() const {
  constexpr const char* kWhere = "AreaManager";
  RELOGIC_AUDIT_CHECK(
      grid_.size() == static_cast<std::size_t>(rows_) * cols_, kWhere,
      "grid size does not match geometry");

  // Pass 1: the region table against the grid. Each region's rectangle must
  // lie in bounds and be filled with exactly its id.
  for (const Region& r : regions_) {
    RELOGIC_AUDIT_CHECK(r.id > 0, kWhere,
                        "region table entry with invalid id " +
                            std::to_string(r.id));
    RELOGIC_AUDIT_CHECK(
        r.rect.row >= 0 && r.rect.col >= 0 && r.rect.row_end() <= rows_ &&
            r.rect.col_end() <= cols_ && r.rect.area() > 0,
        kWhere,
        "region " + std::to_string(r.id) + " rectangle out of bounds");
    for (int row = r.rect.row; row < r.rect.row_end(); ++row)
      for (int col = r.rect.col; col < r.rect.col_end(); ++col)
        RELOGIC_AUDIT_CHECK(
            grid_[static_cast<std::size_t>(row) * cols_ + col] == r.id, kWhere,
            "region " + std::to_string(r.id) + " missing from grid at (" +
                std::to_string(row) + "," + std::to_string(col) + ")");
  }

  // Pass 2: the grid against the region table, recounting everything the
  // hot path maintains incrementally. Pass 1 proved each region covers its
  // own rectangle; equal per-id cell counts then pin the reverse direction
  // (no stray cells outside it).
  int free_count = 0;
  int masked_count = 0;
  std::size_t region_cells = 0;
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    const RegionId id = grid_[i];
    if (id == kNoRegion) {
      ++free_count;
    } else if (id == kFaultyRegion) {
      ++masked_count;
    } else {
      RELOGIC_AUDIT_CHECK(exists(id), kWhere,
                          "grid cell " + std::to_string(i) +
                              " occupied by unknown region " +
                              std::to_string(id));
      ++region_cells;
    }
  }
  std::size_t table_cells = 0;
  for (const Region& r : regions_)
    table_cells += static_cast<std::size_t>(r.rect.area());
  RELOGIC_AUDIT_CHECK(region_cells == table_cells, kWhere,
                      "grid holds " + std::to_string(region_cells) +
                          " region cells but the table claims " +
                          std::to_string(table_cells));
  RELOGIC_AUDIT_CHECK(free_clbs_ == free_count, kWhere,
                      "free_clbs counter " + std::to_string(free_clbs_) +
                          " != recounted " + std::to_string(free_count));
  RELOGIC_AUDIT_CHECK(masked_clbs_ == masked_count, kWhere,
                      "masked_clbs counter " + std::to_string(masked_clbs_) +
                          " != recounted " + std::to_string(masked_count));

  // Pass 3: the derived structures. The table is in strict id order (the
  // binary-search lookup relies on it); every row and column bit, padding
  // included, equals "the grid cell is free"; the cached largest free area
  // and rectangle equal the histogram sweep's.
  for (std::size_t i = 1; i < regions_.size(); ++i)
    RELOGIC_AUDIT_CHECK(regions_[i - 1].id < regions_[i].id, kWhere,
                        "region table out of id order at entry " +
                            std::to_string(i));
  const auto bit = [](const Word* words, int k) {
    return ((words[k / kWordBits] >> (k % kWordBits)) & 1) != 0;
  };
  for (int row = 0; row < rows_; ++row) {
    for (int col = 0; col < free_rows_.row_words() * kWordBits; ++col) {
      const bool free =
          col < cols_ &&
          grid_[static_cast<std::size_t>(row) * cols_ + col] == kNoRegion;
      RELOGIC_AUDIT_CHECK(bit(row_bits(row), col) == free, kWhere,
                          "row bitset disagrees with the grid at (" +
                              std::to_string(row) + "," +
                              std::to_string(col) + ")");
    }
  }
  for (int col = 0; col < cols_; ++col) {
    for (int row = 0; row < col_words_ * kWordBits; ++row) {
      const bool free =
          row < rows_ &&
          grid_[static_cast<std::size_t>(row) * cols_ + col] == kNoRegion;
      RELOGIC_AUDIT_CHECK(bit(col_bits(col), row) == free, kWhere,
                          "column bitset disagrees with the grid at (" +
                              std::to_string(row) + "," +
                              std::to_string(col) + ")");
    }
  }
  if (largest_free_ || largest_area_ >= 0) {
    const ClbRect fresh = sweep_largest_free_rect();
    if (largest_free_)
      RELOGIC_AUDIT_CHECK(*largest_free_ == fresh, kWhere,
                          "cached largest free rect " +
                              largest_free_->to_string() +
                              " != recomputed " + fresh.to_string());
    if (largest_area_ >= 0)
      RELOGIC_AUDIT_CHECK(largest_area_ == fresh.area(), kWhere,
                          "cached largest free area " +
                              std::to_string(largest_area_) +
                              " != swept " + std::to_string(fresh.area()));
  }
}

}  // namespace relogic::area
