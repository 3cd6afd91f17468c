-- VWAP leg of the SOBI strategy on the ask side: sum of price*volume over
-- the asks whose better book (orders at strictly lower prices) holds less
-- than 25% of total ask volume. The mirror of bench/queries/vwap.sql, so
-- the `tick` workload pays a nested-aggregate trigger on both book sides.
create table ASKS(ID int, BROKER_ID int, PRICE int, VOLUME int);

select sum(a1.PRICE * a1.VOLUME) from ASKS a1 where
  (select sum(a2.VOLUME) from ASKS a2 where a2.PRICE < a1.PRICE) * 4
  < (select sum(a3.VOLUME) from ASKS a3);
