// Travel booking across heterogeneous reservation systems, with local
// transactions running concurrently at each site.
//
// A trip books a flight (airline database), a hotel room (hotel chain
// database) and a car (rental database) atomically. Each system is an
// autonomous LDBS with its own local users: check-in agents and cleaning
// crews update rows directly through the local interface, invisible to the
// DTM. The Denied-Local-Updates rule keeps locals from updating data bound
// to prepared bookings, while local reads always proceed.
//
//   build/examples/travel_booking

#include <cstdio>

#include "common/rng.h"
#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"

using namespace hermes;  // NOLINT — example brevity

namespace {

constexpr SiteId kAirline = 0;
constexpr SiteId kHotel = 1;
constexpr SiteId kCars = 2;
constexpr int64_t kInventory = 30;

}  // namespace

int main() {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 3;
  core::Mdbs mdbs(config, &loop);

  // Each company's schema differs (heterogeneity): same logical content,
  // different field names.
  const db::TableId seats = *mdbs.CreateTable(kAirline, "seats");
  const db::TableId rooms = *mdbs.CreateTable(kHotel, "rooms");
  const db::TableId cars = *mdbs.CreateTable(kCars, "fleet");
  for (int64_t k = 0; k < kInventory; ++k) {
    mdbs.LoadRow(kAirline, seats, k,
                 db::Row{{"free", db::Value(int64_t{1})},
                         {"fare", db::Value(int64_t{120})}});
    mdbs.LoadRow(kHotel, rooms, k,
                 db::Row{{"vacant", db::Value(int64_t{1})},
                         {"rate", db::Value(int64_t{90})}});
    mdbs.LoadRow(kCars, cars, k,
                 db::Row{{"available", db::Value(int64_t{1})},
                         {"class", db::Value(std::string("mid"))}});
  }

  Rng rng(2026);
  int booked = 0, failed = 0, trips = 0;
  constexpr int kTrips = 25;

  std::function<void()> book_trip = [&]() {
    if (trips >= kTrips) return;
    ++trips;
    const int64_t seat = static_cast<int64_t>(rng.NextUint64(kInventory));
    const int64_t room = static_cast<int64_t>(rng.NextUint64(kInventory));
    const int64_t car = static_cast<int64_t>(rng.NextUint64(kInventory));

    // Booking = flip each availability flag from 1 to 0; the predicate
    // `flag = 1` makes double-booking impossible: a taken resource matches
    // nothing and the application aborts the trip.
    core::GlobalTxnSpec spec;
    spec.steps.push_back(
        {kAirline,
         db::MakeUpdate(seats,
                        db::Predicate::KeyEquals(seat).AndField(
                            "free", db::CmpOp::kEq, db::Value(int64_t{1})),
                        {db::Assignment{"free", db::Assignment::Kind::kSet,
                                        db::Value(int64_t{0})}})});
    spec.steps.push_back(
        {kHotel,
         db::MakeUpdate(rooms,
                        db::Predicate::KeyEquals(room).AndField(
                            "vacant", db::CmpOp::kEq, db::Value(int64_t{1})),
                        {db::Assignment{"vacant", db::Assignment::Kind::kSet,
                                        db::Value(int64_t{0})}})});
    spec.steps.push_back(
        {kCars,
         db::MakeUpdate(cars,
                        db::Predicate::KeyEquals(car).AndField(
                            "available", db::CmpOp::kEq,
                            db::Value(int64_t{1})),
                        {db::Assignment{"available",
                                        db::Assignment::Kind::kSet,
                                        db::Value(int64_t{0})}})});
    // Any resource already taken -> its update matches 0 rows -> the whole
    // trip aborts atomically (no partial bookings).
    for (auto& step : spec.steps) step.min_affected = 1;

    mdbs.Submit(spec, [&](const core::GlobalTxnResult& r) {
      if (r.status.ok()) {
        ++booked;
      } else {
        ++failed;
      }
      book_trip();
    });
  };
  for (int client = 0; client < 3; ++client) {
    loop.ScheduleAfter(0, [&]() { book_trip(); });
  }

  // Local users at each site: the hotel's own front desk reads occupancy
  // and adjusts rates — purely local transactions the DTM never sees.
  int local_done = 0;
  std::function<void()> local_work = [&]() {
    if (trips >= kTrips) return;
    core::LocalTxnSpec spec;
    spec.site = kHotel;
    spec.commands.push_back(db::MakeSelect(
        rooms,
        db::Predicate::Field("vacant", db::CmpOp::kEq,
                             db::Value(int64_t{1}))));
    spec.commands.push_back(db::MakeAddKey(
        rooms, static_cast<int64_t>(rng.NextUint64(kInventory)), "rate",
        db::Value(int64_t{1})));
    mdbs.SubmitLocal(spec, [&](const core::LocalTxnResult& r) {
      if (r.status.ok()) ++local_done;
      loop.ScheduleAfter(2 * sim::kMillisecond, [&]() { local_work(); });
    });
  };
  loop.ScheduleAfter(0, [&]() { local_work(); });

  loop.Run();

  int64_t seats_taken = 0;
  for (const auto& [k, e] :
       mdbs.storage(kAirline)->GetTable(seats)->entries()) {
    if (e.live() && std::get<int64_t>(*e.row->Get("free")) == 0) {
      ++seats_taken;
    }
  }
  std::printf("trips: %d fully booked, %d failed/partial (of %d)\n", booked,
              failed, kTrips);
  std::printf("airline seats taken: %lld\n",
              static_cast<long long>(seats_taken));
  std::printf("hotel front-desk local transactions committed: %d "
              "(DLU refusals at hotel: %lld)\n",
              local_done,
              static_cast<long long>(
                  mdbs.ltm(kHotel)->stats().dlu_rejections));

  const auto committed =
      history::CommittedProjection(mdbs.recorder().ops());
  std::printf("commit order graph acyclic: %s\n",
              history::CommitGraphAcyclic(committed) ? "yes" : "NO");
  return 0;
}
