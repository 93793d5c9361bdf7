#include "rtree/incremental_nn.h"

namespace ir2 {

// The traversal lives in the header as a template over the entry filter;
// the plain (accept-all) instantiation is anchored here so every unfiltered
// call site shares one copy.
template class IncrementalNNCursor<AcceptAllEntries>;

}  // namespace ir2
