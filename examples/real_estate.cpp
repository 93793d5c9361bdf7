// Real estate search: the paper's second motivating application — "real
// estate web sites allow users to search for properties with specific
// keywords in their description and rank them according to their distance
// from a specified location".
//
// Demonstrates the *general* top-k spatial keyword query (Section V-C):
// listings are ranked by f(distance, IRscore), so a listing matching only
// some keywords can still win if it is close, and the ir/distance weights
// trade relevance against proximity.
//
//   ./real_estate

#include <cstdio>
#include <vector>

#include "core/database.h"
#include "datagen/synthetic.h"

namespace {

void RunQuery(ir2::SpatialKeywordDatabase& db, const ir2::Point& home,
              const std::vector<std::string>& keywords, double ir_weight,
              double distance_weight) {
  ir2::GeneralQuery query;
  query.point = home;
  query.keywords = keywords;
  query.k = 5;
  query.ir_weight = ir_weight;
  query.distance_weight = distance_weight;

  ir2::QueryStats stats;
  std::vector<ir2::QueryResult> results =
      db.QueryGeneral(query, &stats).value();

  std::printf("f = %.1f*IRscore - %.2f*distance:\n", ir_weight,
              distance_weight);
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %zu. listing #%-6u  distance=%7.2f  IRscore=%6.3f  "
                "f=%8.3f\n",
                i + 1, results[i].object_id, results[i].distance,
                results[i].ir_score, results[i].score);
  }
  std::printf("  (%llu nodes visited, %llu listings fetched)\n\n",
              static_cast<unsigned long long>(stats.nodes_visited),
              static_cast<unsigned long long>(stats.objects_loaded));
}

}  // namespace

int main() {
  // A listings corpus: moderately wordy descriptions.
  ir2::SyntheticConfig config;
  config.seed = 1234;
  config.num_objects = 20000;
  config.vocabulary_size = 8000;
  config.avg_distinct_words = 40.0;
  config.spatial = ir2::SyntheticConfig::Spatial::kClustered;
  config.num_clusters = 40;
  config.name_prefix = "listing";
  std::printf("Generating %u listings...\n", config.num_objects);
  std::vector<ir2::StoredObject> listings = ir2::GenerateDataset(config);

  // Give a handful of listings a curated description so the demo queries
  // have recognizable targets.
  listings[7].text += " waterfront pool garage renovated kitchen";
  listings[8].text += " waterfront garage";
  listings[9].text += " pool garage fireplace";

  ir2::DatabaseOptions options;
  options.ir2_signature =
      ir2::SignatureConfig{ir2::OptimalSignatureBits(41, 3), 3};
  // The general algorithm needs IR2 (or MIR2) and the IIO.
  options.structures = {ir2::Structure::kIr2, ir2::Structure::kMir2,
                        ir2::Structure::kIio};
  auto db = ir2::SpatialKeywordDatabase::Build(listings, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  ir2::SpatialKeywordDatabase& database = *db->get();

  ir2::Point home(listings[7].coords[0] + 1.0, listings[7].coords[1] - 1.0);
  std::vector<std::string> wishlist = {"waterfront", "pool", "garage"};

  std::printf("\nSearching near [%.1f, %.1f] for {waterfront, pool, "
              "garage}\n\n",
              home[0], home[1]);

  // Relevance-dominated: listings matching more keywords win even if far.
  RunQuery(database, home, wishlist, /*ir_weight=*/10.0,
           /*distance_weight=*/0.01);

  // Balanced: nearby partial matches can overtake distant full matches.
  RunQuery(database, home, wishlist, /*ir_weight=*/1.0,
           /*distance_weight=*/0.05);

  // Proximity-dominated: any keyword match nearby wins.
  RunQuery(database, home, wishlist, /*ir_weight=*/0.2,
           /*distance_weight=*/1.0);

  // The same ranking served from the MIR2-Tree.
  ir2::GeneralQuery query;
  query.point = home;
  query.keywords = wishlist;
  query.k = 3;
  query.ir_weight = 10.0;
  query.distance_weight = 0.01;
  std::vector<ir2::QueryResult> via_mir2 =
      database.QueryGeneral(query, nullptr, /*use_mir2=*/true).value();
  std::printf("Top-3 via MIR2-Tree (same ranking):\n");
  for (size_t i = 0; i < via_mir2.size(); ++i) {
    std::printf("  %zu. listing #%u  f=%.3f\n", i + 1,
                via_mir2[i].object_id, via_mir2[i].score);
  }
  return 0;
}
