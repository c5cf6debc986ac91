// The answer oracle: reference results computed by filtering the
// generated tuples directly, never by asking the program. Database::Select
// is what is under test, so it cannot also be the reference.
//
// φ order over ordinal tuples is lexicographic with attribute 0 most
// significant, which is what std::vector's operator< gives; the oracle
// sorts with that and nothing from the program.

#ifndef AVQDB_WIREBENCH_ORACLE_H_
#define AVQDB_WIREBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/db/query.h"
#include "src/schema/tuple.h"

namespace avqdb::wirebench {

// Order-sensitive FNV-1a over every digit of every tuple.
inline uint64_t Digest(const std::vector<OrdinalTuple>& tuples) {
  uint64_t h = 1469598103934665603ull;
  for (const OrdinalTuple& t : tuples) {
    for (uint64_t v : t) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    }
    h ^= 0xff;  // tuple separator
    h *= 1099511628211ull;
  }
  return h;
}

inline bool Satisfies(const OrdinalTuple& t, const ConjunctiveQuery& q) {
  for (const RangeQuery& p : q.predicates) {
    if (t[p.attribute] < p.lo || t[p.attribute] > p.hi) return false;
  }
  return true;
}

inline bool StrictlyAscending(const std::vector<OrdinalTuple>& tuples) {
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (!(tuples[i - 1] < tuples[i])) return false;
  }
  return true;
}

// A range selection with its expected answer, summarized as the count
// and digest of the φ-ordered matching tuples.
struct RangeCase {
  ConjunctiveQuery query;
  uint64_t count = 0;
  uint64_t digest = 0;
};

class Oracle {
 public:
  // `generated` is in generation order, so tuple i carries key i on the
  // last attribute. The first `loaded` tuples are the initial table; the
  // rest form the writers' pool of fresh keys.
  Oracle(const std::vector<OrdinalTuple>* generated, size_t loaded)
      : generated_(generated), loaded_(loaded) {
    sorted_.assign(generated->begin(),
                   generated->begin() + static_cast<ptrdiff_t>(loaded));
    std::sort(sorted_.begin(), sorted_.end());
  }

  const std::vector<OrdinalTuple>& generated() const { return *generated_; }

  RangeCase MakeRange(ConjunctiveQuery query) const {
    RangeCase out;
    std::vector<OrdinalTuple> matches;
    for (const OrdinalTuple& t : sorted_) {
      if (Satisfies(t, query)) matches.push_back(t);
    }
    out.query = std::move(query);
    out.count = matches.size();
    out.digest = Digest(matches);
    return out;
  }

  static Status CheckRange(const RangeCase& expected,
                           const std::vector<OrdinalTuple>& got) {
    if (got.size() != expected.count || Digest(got) != expected.digest) {
      return Status::Corruption(StringFormat(
          "range answer differs from the reference: %zu tuples, expected "
          "%llu",
          got.size(), static_cast<unsigned long long>(expected.count)));
    }
    return Status::OK();
  }

  // A key lookup. Keys of the initial table must come back as exactly
  // their one tuple. Keys that writers may touch (the pool) may be absent
  // or present; either way the answer must be φ-sorted, duplicate-free
  // and satisfy the predicate.
  Status CheckPoint(uint64_t key, const ConjunctiveQuery& query,
                    const std::vector<OrdinalTuple>& got) const {
    if (!StrictlyAscending(got)) {
      return Status::Corruption("point answer not φ-sorted or has duplicates");
    }
    for (const OrdinalTuple& t : got) {
      if (!Satisfies(t, query)) {
        return Status::Corruption(StringFormat(
            "point answer for key %llu violates its predicate",
            static_cast<unsigned long long>(key)));
      }
    }
    const OrdinalTuple& expected = generated_->at(key);
    if (key < loaded_) {
      if (got.size() != 1 || got[0] != expected) {
        return Status::Corruption(StringFormat(
            "point answer for key %llu differs from the reference (%zu "
            "tuples)",
            static_cast<unsigned long long>(key), got.size()));
      }
    } else if (got.size() > 1 || (got.size() == 1 && got[0] != expected)) {
      return Status::Corruption(StringFormat(
          "pool key %llu returned a tuple no writer inserted",
          static_cast<unsigned long long>(key)));
    }
    return Status::OK();
  }

  // The table after the final Flush must equal the initial set plus the
  // pool tuples whose last acked operation was an insert.
  Status CheckFinal(const std::vector<size_t>& live_pool,
                    const std::vector<OrdinalTuple>& got) const {
    std::vector<OrdinalTuple> expected = sorted_;
    for (size_t index : live_pool) expected.push_back(generated_->at(index));
    std::sort(expected.begin(), expected.end());
    if (got != expected) {
      return Status::Corruption(StringFormat(
          "final table differs from the acked-mutation fold: %zu tuples, "
          "expected %zu",
          got.size(), expected.size()));
    }
    return Status::OK();
  }

  // Self-check hook: perturbs the reference so a correct program must
  // now fail the check.
  void CorruptPointReference(uint64_t key) {
    corrupted_ = *generated_;
    corrupted_[key][0] ^= 1;
    generated_ = &corrupted_;
  }

 private:
  const std::vector<OrdinalTuple>* generated_;
  size_t loaded_;
  std::vector<OrdinalTuple> sorted_;
  std::vector<OrdinalTuple> corrupted_;
};

}  // namespace avqdb::wirebench

#endif  // AVQDB_WIREBENCH_ORACLE_H_
