#pragma once
// logsim/serve.hpp -- the network serving layer (DESIGN.md §12).
//
// A serve::Server is a long-running TCP prediction daemon: an epoll event
// loop fair-queues length-prefixed requests from many clients into one
// process-wide BatchPredictor whose prediction/step caches are shared, so
// a hot program costs one simulation for the whole fleet.  serve::Client
// is the matching blocking client; the wire codec is exposed for load
// generators that pipeline raw frames.

#include "serve/client.hpp"    // IWYU pragma: export
#include "serve/registry.hpp"  // IWYU pragma: export
#include "serve/server.hpp"    // IWYU pragma: export
#include "serve/wire.hpp"      // IWYU pragma: export
