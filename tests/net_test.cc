// Unit tests for the discrete-event loop and the simulated network.
#include <gtest/gtest.h>

#include "src/net/event_loop.h"
#include "src/net/network.h"
#include "src/net/profiles.h"

namespace rcb {
namespace {

// -------------------------------------------------------------- EventLoop --

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Duration::Millis(30), [&] { order.push_back(3); });
  loop.Schedule(Duration::Millis(10), [&] { order.push_back(1); });
  loop.Schedule(Duration::Millis(20), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().millis(), 30);
}

TEST(EventLoopTest, FifoForEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(Duration::Millis(10), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Duration::Millis(5), [&] {
    order.push_back(1);
    loop.Schedule(Duration::Millis(5), [&] { order.push_back(2); });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now().millis(), 10);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  uint64_t id = loop.Schedule(Duration::Millis(1), [&] { ran = true; });
  loop.Cancel(id);
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancellingAFiredOrUnknownIdLeavesTheCountExact) {
  EventLoop loop;
  uint64_t fired = loop.Schedule(Duration::Millis(1), [] {});
  loop.Run();
  loop.Cancel(fired);
  loop.Cancel(fired + 1000);  // never scheduled
  bool ran = false;
  uint64_t id = loop.Schedule(Duration::Millis(1), [&] { ran = true; });
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_FALSE(loop.empty());
  loop.Cancel(id);
  loop.Cancel(id);  // twice
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.Run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, PoppedEventIsMovedNotCopied) {
  // A callback whose captures count their copies: running it must not copy
  // them (a copy per pop duplicates every captured response body).
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies) {
      ++*copies;
    }
    CopyCounter(CopyCounter&&) = default;
  };
  EventLoop loop;
  int copies = 0;
  bool ran = false;
  loop.Schedule(Duration::Millis(1),
                [counter = CopyCounter(&copies), &ran] { ran = true; });
  copies = 0;
  loop.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(copies, 0);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Duration::Millis(10), [&] { ++count; });
  loop.Schedule(Duration::Millis(30), [&] { ++count; });
  loop.RunUntil(SimTime::FromMicros(20'000));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now().millis(), 20);
  loop.Run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, RunUntilIgnoresCancelledHeadBeforeDeadlineCheck) {
  EventLoop loop;
  int count = 0;
  // A cancelled entry ahead of the deadline must not let RunUntil slide past
  // the deadline check and execute a live event scheduled beyond it.
  uint64_t id = loop.Schedule(Duration::Millis(5), [&] { ++count; });
  loop.Schedule(Duration::Millis(30), [&] { ++count; });
  loop.Cancel(id);
  loop.RunUntil(SimTime::FromMicros(20'000));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(loop.now().millis(), 20);
  loop.Run();
  EXPECT_EQ(count, 1);
}

TEST(EventLoopTest, RunForAdvancesEvenWithoutEvents) {
  EventLoop loop;
  loop.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(loop.now().seconds(), 2.0);
}

TEST(EventLoopTest, RunUntilCondition) {
  EventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 10) {
      loop.Schedule(Duration::Millis(1), tick);
    }
  };
  loop.Schedule(Duration::Millis(1), tick);
  bool satisfied = loop.RunUntilCondition([&] { return ticks >= 5; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(ticks, 5);
}

TEST(EventLoopTest, RunUntilConditionExhaustsQueue) {
  EventLoop loop;
  loop.Schedule(Duration::Millis(1), [] {});
  EXPECT_FALSE(loop.RunUntilCondition([] { return false; }));
}

TEST(EventLoopTest, NegativeDelayClamped) {
  EventLoop loop;
  bool ran = false;
  loop.Schedule(Duration::Millis(-5), [&] { ran = true; });
  loop.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now().millis(), 0);
}

// ---------------------------------------------------------------- Network --

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&loop_) {
    network_.AddHost("client", {});
    network_.AddHost("server", {});
    network_.SetLatency("client", "server", Duration::Millis(10));
  }
  EventLoop loop_;
  Network network_;
};

TEST_F(NetworkTest, ConnectRefusedWithoutListener) {
  auto endpoint = network_.Connect("client", "server", 80);
  EXPECT_FALSE(endpoint.ok());
  EXPECT_EQ(endpoint.status().code(), StatusCode::kUnavailable);
}

TEST_F(NetworkTest, ConnectUnknownHostFails) {
  EXPECT_FALSE(network_.Connect("client", "nowhere", 80).ok());
  EXPECT_FALSE(network_.Connect("nowhere", "server", 80).ok());
}

TEST_F(NetworkTest, AcceptFiresAfterOneWayLatency) {
  SimTime accept_time;
  bool accepted = false;
  ASSERT_TRUE(network_.Listen("server", 80, [&](NetEndpoint*) {
    accepted = true;
    accept_time = loop_.now();
  }).ok());
  ASSERT_TRUE(network_.Connect("client", "server", 80).ok());
  loop_.Run();
  EXPECT_TRUE(accepted);
  EXPECT_EQ(accept_time.millis(), 10);
}

TEST_F(NetworkTest, DataDeliveredAfterHandshakePlusLatency) {
  NetEndpoint* server_end = nullptr;
  std::string received;
  SimTime received_at;
  ASSERT_TRUE(network_.Listen("server", 80, [&](NetEndpoint* endpoint) {
    server_end = endpoint;
    endpoint->SetDataHandler([&](std::string_view data) {
      received = std::string(data);
      received_at = loop_.now();
    });
  }).ok());
  auto client = network_.Connect("client", "server", 80);
  ASSERT_TRUE(client.ok());
  (*client)->Send("hello");
  loop_.Run();
  EXPECT_EQ(received, "hello");
  // Handshake completes at 20 ms (RTT); data then takes 10 ms one way.
  EXPECT_EQ(received_at.millis(), 30);
}

TEST_F(NetworkTest, BandwidthAddsSerializationDelay) {
  // 1 Mbps uplink on the client: 125000 bytes/s.
  network_.AddHost("slow", {.uplink_bps = 1'000'000, .downlink_bps = 1'000'000});
  network_.SetLatency("slow", "server", Duration::Millis(10));
  SimTime received_at;
  ASSERT_TRUE(network_.Listen("server", 81, [&](NetEndpoint* endpoint) {
    endpoint->SetDataHandler([&](std::string_view) { received_at = loop_.now(); });
  }).ok());
  auto client = network_.Connect("slow", "server", 81);
  ASSERT_TRUE(client.ok());
  (*client)->Send(std::string(125'000, 'x'));  // exactly 1 second at 1 Mbps
  loop_.Run();
  // handshake 20ms + tx 1000ms + propagation 10ms
  EXPECT_EQ(received_at.millis(), 20 + 1000 + 10);
}

TEST_F(NetworkTest, ConsecutiveSendsQueueOnInterface) {
  network_.AddHost("slow2", {.uplink_bps = 1'000'000, .downlink_bps = 0});
  network_.SetLatency("slow2", "server", Duration::Millis(0));
  std::vector<SimTime> arrivals;
  ASSERT_TRUE(network_.Listen("server", 82, [&](NetEndpoint* endpoint) {
    endpoint->SetDataHandler(
        [&](std::string_view) { arrivals.push_back(loop_.now()); });
  }).ok());
  auto client = network_.Connect("slow2", "server", 82);
  ASSERT_TRUE(client.ok());
  (*client)->Send(std::string(125'000, 'a'));  // 1 s
  (*client)->Send(std::string(125'000, 'b'));  // queues behind the first
  loop_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].millis(), 1000);
  EXPECT_EQ(arrivals[1].millis(), 2000);
}

TEST_F(NetworkTest, SmallMessageNeverOvertakesEarlierOneOnSameConnection) {
  // 1 Mbps: the 3 KB message needs 24 ms on the wire, the 100 B one 0.8 ms.
  network_.AddHost("slow3", {.uplink_bps = 1'000'000, .downlink_bps = 0});
  network_.SetLatency("slow3", "server", Duration::Millis(5));
  std::vector<size_t> sizes;
  std::vector<SimTime> arrivals;
  ASSERT_TRUE(network_.Listen("server", 85, [&](NetEndpoint* endpoint) {
    endpoint->SetDataHandler([&](std::string_view data) {
      sizes.push_back(data.size());
      arrivals.push_back(loop_.now());
    });
  }).ok());
  auto client = network_.Connect("slow3", "server", 85);
  ASSERT_TRUE(client.ok());
  (*client)->Send(std::string(3000, 'a'));
  (*client)->Send(std::string(100, 'b'));
  loop_.Run();
  ASSERT_EQ(sizes, (std::vector<size_t>{3000, 100}));
  // Handshake 10 ms + 24 ms on the wire + 5 ms propagation; the small
  // message arrives with it, not before.
  EXPECT_EQ(arrivals[0].micros(), 39'000);
  EXPECT_EQ(arrivals[1], arrivals[0]);
}

TEST_F(NetworkTest, SmallMessageStillOvertakesBulkOnAnotherConnection) {
  network_.AddHost("slow4", {.uplink_bps = 1'000'000, .downlink_bps = 0});
  network_.SetLatency("slow4", "server", Duration::Millis(5));
  std::vector<size_t> sizes;
  ASSERT_TRUE(network_.Listen("server", 86, [&](NetEndpoint* endpoint) {
    endpoint->SetDataHandler(
        [&](std::string_view data) { sizes.push_back(data.size()); });
  }).ok());
  auto bulk = network_.Connect("slow4", "server", 86);
  auto small = network_.Connect("slow4", "server", 86);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(small.ok());
  (*bulk)->Send(std::string(3000, 'a'));
  (*small)->Send(std::string(100, 'b'));
  loop_.Run();
  EXPECT_EQ(sizes, (std::vector<size_t>{100, 3000}));
}

TEST_F(NetworkTest, BottleneckIsMinOfUplinkAndDownlink) {
  network_.AddHost("fast-up", {.uplink_bps = 100'000'000, .downlink_bps = 0});
  network_.AddHost("slow-down", {.uplink_bps = 0, .downlink_bps = 1'000'000});
  network_.SetLatency("fast-up", "slow-down", Duration::Millis(0));
  SimTime arrival;
  ASSERT_TRUE(network_.Listen("slow-down", 83, [&](NetEndpoint* endpoint) {
    endpoint->SetDataHandler([&](std::string_view) { arrival = loop_.now(); });
  }).ok());
  auto client = network_.Connect("fast-up", "slow-down", 83);
  ASSERT_TRUE(client.ok());
  (*client)->Send(std::string(125'000, 'x'));
  loop_.Run();
  EXPECT_EQ(arrival.millis(), 1000);  // limited by the 1 Mbps downlink
}

TEST_F(NetworkTest, BidirectionalTraffic) {
  NetEndpoint* server_end = nullptr;
  std::string client_got;
  std::string server_got;
  ASSERT_TRUE(network_.Listen("server", 84, [&](NetEndpoint* endpoint) {
    server_end = endpoint;
    endpoint->SetDataHandler([&server_got, endpoint](std::string_view data) {
      server_got = std::string(data);
      endpoint->Send("pong");
    });
  }).ok());
  auto client = network_.Connect("client", "server", 84);
  ASSERT_TRUE(client.ok());
  (*client)->SetDataHandler(
      [&](std::string_view data) { client_got = std::string(data); });
  (*client)->Send("ping");
  loop_.Run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
}

TEST_F(NetworkTest, CloseNotifiesPeer) {
  NetEndpoint* server_end = nullptr;
  bool server_closed = false;
  ASSERT_TRUE(network_.Listen("server", 85, [&](NetEndpoint* endpoint) {
    server_end = endpoint;
    endpoint->SetCloseHandler([&] { server_closed = true; });
  }).ok());
  auto client = network_.Connect("client", "server", 85);
  ASSERT_TRUE(client.ok());
  loop_.Run();
  (*client)->Close();
  loop_.Run();
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE((*client)->closed());
}

TEST_F(NetworkTest, SendAfterCloseDropped) {
  ASSERT_TRUE(network_.Listen("server", 86, [](NetEndpoint*) {}).ok());
  auto client = network_.Connect("client", "server", 86);
  ASSERT_TRUE(client.ok());
  (*client)->Close();
  (*client)->Send("lost");
  loop_.Run();
  EXPECT_EQ((*client)->bytes_sent(), 0u);
}

TEST_F(NetworkTest, DuplicateListenRejected) {
  ASSERT_TRUE(network_.Listen("server", 87, [](NetEndpoint*) {}).ok());
  EXPECT_EQ(network_.Listen("server", 87, [](NetEndpoint*) {}).code(),
            StatusCode::kAlreadyExists);
  network_.StopListening("server", 87);
  EXPECT_TRUE(network_.Listen("server", 87, [](NetEndpoint*) {}).ok());
}

TEST_F(NetworkTest, BlockedRouteRefused) {
  ASSERT_TRUE(network_.Listen("server", 88, [](NetEndpoint*) {}).ok());
  network_.BlockRoute("client", "server");
  EXPECT_FALSE(network_.Connect("client", "server", 88).ok());
  network_.UnblockRoute("client", "server");
  EXPECT_TRUE(network_.Connect("client", "server", 88).ok());
}

TEST_F(NetworkTest, TrafficCountersAdvance) {
  ASSERT_TRUE(network_.Listen("server", 89, [](NetEndpoint*) {}).ok());
  auto client = network_.Connect("client", "server", 89);
  ASSERT_TRUE(client.ok());
  (*client)->Send("12345");
  loop_.Run();
  EXPECT_EQ(network_.total_bytes_transferred(), 5u);
  EXPECT_EQ(network_.total_messages(), 1u);
}

// --------------------------------------------------------------- Profiles --

TEST(ProfilesTest, LanProfileShape) {
  NetworkProfile lan = LanProfile();
  EXPECT_EQ(lan.host_interface.uplink_bps, 100'000'000);
  EXPECT_LT(lan.host_participant_latency, Duration::Millis(1));
}

TEST(ProfilesTest, WanProfileShape) {
  NetworkProfile wan = WanProfile();
  EXPECT_EQ(wan.host_interface.uplink_bps, 384'000);
  EXPECT_EQ(wan.host_interface.downlink_bps, 1'500'000);
  EXPECT_GE(wan.host_participant_latency, Duration::Millis(10));
}

TEST(ProfilesTest, ApplyProfileRegistersHosts) {
  EventLoop loop;
  Network network(&loop);
  ApplyProfile(&network, LanProfile(), "h", "p");
  EXPECT_TRUE(network.HasHost("h"));
  EXPECT_TRUE(network.HasHost("p"));
  EXPECT_EQ(network.LatencyBetween("h", "p"),
            LanProfile().host_participant_latency);
}

TEST(ProfilesTest, AddOriginServerSetsLatency) {
  EventLoop loop;
  Network network(&loop);
  NetworkProfile wan = WanProfile();
  ApplyProfile(&network, wan, "h", "p");
  AddOriginServer(&network, wan, "www.site.com", 8'000'000,
                  Duration::Millis(30), "h", "p");
  EXPECT_TRUE(network.HasHost("www.site.com"));
  EXPECT_EQ(network.LatencyBetween("h", "www.site.com"),
            Duration::Millis(30) + wan.access_latency);
}

}  // namespace
}  // namespace rcb
