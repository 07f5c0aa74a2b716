#ifndef GKEYS_GEN_DATASETS_H_
#define GKEYS_GEN_DATASETS_H_

#include <cstdint>

#include "gen/synthetic.h"

namespace gkeys {

/// Stand-in for the Google+ social-attribute network of [21] (paper §6):
/// person entities connected to attribute entities (employer, university,
/// place, major, …) whose types partition the node set, with duplicate
/// accounts planted across "two networks". The raw crawl is not
/// distributable; this generator reproduces the structural features the
/// algorithms are sensitive to — attribute-star topology, value-based
/// keys on attribute types, recursive person keys, dependency chains
/// person → employer → place (c = 3). See docs/ARCHITECTURE.md,
/// "Deviations from the paper".
struct GoogleSimConfig {
  uint64_t seed = 7;
  int num_persons = 120;
  int num_employers = 40;
  int num_universities = 30;
  int num_places = 25;
  int num_majors = 15;
  /// Duplicate account pairs planted among persons (and, transitively,
  /// among the attribute entities they reference).
  int duplicate_pairs = 12;
  double scale = 1.0;
};

SyntheticDataset GenerateGoogleSim(const GoogleSimConfig& config);

/// Stand-in for DBpedia 2014 [1] (paper §6): a knowledge base spanning the
/// paper's own running domains — music (Fig. 1 keys Q1–Q3 with the mutual
/// album ↔ artist recursion of Example 1), business (DAG keys Q4/Q5 for
/// company merging/splitting), addresses (constant key Q6), plus the
/// Fig. 7 keys (book by cover artist, company by CEO + parent company,
/// artist by birth place/date). Long-tail type distribution, duplicates
/// planted per domain.
struct DBpediaSimConfig {
  uint64_t seed = 11;
  int num_artists = 60;
  int num_albums = 90;
  int num_companies = 50;
  int num_books = 40;
  int num_locations = 20;
  int num_streets = 30;
  /// Duplicate pairs planted per domain (artists+albums resolve through
  /// mutual recursion, companies through the Q4 merge pattern, …).
  int duplicate_pairs = 8;
  double scale = 1.0;
};

SyntheticDataset GenerateDBpediaSim(const DBpediaSimConfig& config);

}  // namespace gkeys

#endif  // GKEYS_GEN_DATASETS_H_
