#include "core/ulmo.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace molcache {

Ulmo::Ulmo(ClusterId cluster, std::vector<TileId> tiles)
    : cluster_(cluster), tiles_(std::move(tiles))
{
    // Always on: every escalation path indexes the cluster's tiles.
    MOLCACHE_ASSERT(!tiles_.empty(), "Ulmo with no tiles");
}

bool
Ulmo::managesTile(TileId tile) const
{
    return std::find(tiles_.begin(), tiles_.end(), tile) != tiles_.end();
}

} // namespace molcache
