// Umbrella header for the scoris public API.
//
// Out-of-tree consumers install the library (`cmake --install`) and
// write
//
//     #include <scoris/api.hpp>
//
//     scoris::Session session = scoris::Session::open("ref.scix");
//     scoris::M8Writer sink(std::cout);
//     session.search(queries, sink);
//
// See docs/API.md for the quickstart and the migration table from the
// removed Pipeline::run* entry points.
#pragma once

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "compare/m8.hpp"
#include "core/hit_sink.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "daemon/server.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seqio/fasta.hpp"
#include "seqio/sequence_bank.hpp"
#include "seqio/serialize.hpp"
#include "store/index_store.hpp"
